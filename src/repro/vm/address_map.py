"""Address mapping policies (Section 2, Figure 2).

The map translates a *physical line address* (physical byte address divided
by the 128 B line size) into a memory channel, a bank within the channel
and an LLC slice.

Two policies are provided:

* :class:`FixedChannelMap` -- the partition-aware map used by both UBA and
  NUBA in the paper: the channel bits sit directly above the page offset
  and are copied verbatim, giving the GPU driver full control over page
  placement; bank bits are randomised by XOR-folding higher address bits
  (harvesting row/bank entropy as in PAE [49]); the least significant bank
  bit(s) select the LLC slice within the channel.
* :class:`PAEMap` -- randomises the channel bits too. This improves UBA
  slightly (+3.1%, Section 2) but removes driver placement control, so it
  is only valid for UBA.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config.gpu import GPUConfig
from repro.config.topology import AddressMapKind


def _log2(value: int) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def _xor_fold(value: int, width: int) -> int:
    """XOR-fold an arbitrarily wide integer down to ``width`` bits."""
    mask = (1 << width) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= width
    return folded


class AddressMap:
    """Base class; concrete maps implement :meth:`channel_of_line`."""

    def __init__(self, gpu: GPUConfig) -> None:
        self.gpu = gpu
        self.num_channels = gpu.num_channels
        self.num_slices = gpu.num_llc_slices
        self.slices_per_channel = gpu.slices_per_channel
        self.banks_per_channel = gpu.memory.banks_per_channel
        self.line_bits = _log2(gpu.l1.line_bytes)
        self.page_bits = _log2(gpu.page_bytes)
        self.channel_bits = _log2(self.num_channels)
        self.bank_bits = _log2(self.banks_per_channel)
        self.lines_per_page = gpu.lines_per_page
        #: Line-address bit where the page offset ends.
        self.page_line_bits = self.page_bits - self.line_bits
        # Channel, bank and slice are pure functions of the *physical
        # frame* (everything above the page offset) under both maps, so
        # per-frame memos can never go stale -- page migration remaps
        # vpage -> frame, never a frame's route.
        self._route_cache: Dict[int, Tuple[int, int]] = {}
        self._bank_cache: Dict[int, int] = {}

    # -- interface ---------------------------------------------------

    def channel_of_line(self, line_addr: int) -> int:
        """The memory channel a line maps to."""
        raise NotImplementedError

    def bank_of_line(self, line_addr: int) -> int:
        """Bank within the channel, XOR-randomised for row locality."""
        frame = line_addr >> self.page_line_bits
        bank = self._bank_cache.get(frame)
        if bank is None:
            bank = _xor_fold(frame >> self.channel_bits, self.bank_bits) or 0
            self._bank_cache[frame] = bank
        return bank

    def route_of_line(self, line_addr: int) -> Tuple[int, int]:
        """``(channel, slice)`` for a line in one per-frame memo hit.

        The system router needs both on every request; computing them
        together replaces two ``_xor_fold``/shift chains with a single
        dict probe on the hot path.
        """
        frame = line_addr >> self.page_line_bits
        route = self._route_cache.get(frame)
        if route is None:
            channel = self.channel_of_line(line_addr)
            if self.slices_per_channel == 1:
                route = (channel, channel)
            else:
                within = self.bank_of_line(line_addr) % self.slices_per_channel
                route = (channel,
                         channel * self.slices_per_channel + within)
            self._route_cache[frame] = route
        return route

    def slice_of_line(self, line_addr: int) -> int:
        """Global LLC slice index; slices are grouped per channel and the
        least significant bank bit(s) select the slice within a channel."""
        return self.route_of_line(line_addr)[1]

    def flush_routes(self) -> None:
        """Drop the per-frame memos.

        Routes are frame-pure and cannot go stale; this exists for the
        invalidation tests.
        """
        self._route_cache.clear()
        self._bank_cache.clear()

    # -- driver support ----------------------------------------------

    def frame_for_channel(self, channel: int, index: int) -> int:
        """Physical frame number whose pages map to ``channel``.

        Under the fixed-channel map the channel bits are the low bits of
        the frame number, so frame ``index * C + channel`` is the
        ``index``-th frame of that channel. PAE overrides placement (the
        driver loses control), handled by the subclass.
        """
        return index * self.num_channels + channel

    def line_addr(self, frame: int, line_in_page: int) -> int:
        """Physical line address of a line within a physical frame."""
        return frame * self.lines_per_page + line_in_page

    def driver_controls_placement(self) -> bool:
        """Whether frame choice determines the channel."""
        return True


class FixedChannelMap(AddressMap):
    """Partition-aware fixed-channel map (Figure 2)."""

    def channel_of_line(self, line_addr: int) -> int:
        """Channel bits sit directly above the page offset."""
        return (line_addr >> self.page_line_bits) & (self.num_channels - 1)


class PAEMap(AddressMap):
    """PAE-style map [49]: channel bits randomised with address entropy."""

    def channel_of_line(self, line_addr: int) -> int:
        """Channel selected by XOR-folded address entropy."""
        above_offset = line_addr >> self.page_line_bits
        return _xor_fold(above_offset, self.channel_bits)

    def driver_controls_placement(self) -> bool:
        """PAE randomises channels: the driver has no control."""
        return False


def make_address_map(gpu: GPUConfig, kind: AddressMapKind) -> AddressMap:
    """Build the address map matching a topology's policy."""
    if kind is AddressMapKind.FIXED_CHANNEL:
        return FixedChannelMap(gpu)
    if kind is AddressMapKind.PAE:
        return PAEMap(gpu)
    raise ValueError(f"unknown address map kind: {kind}")
