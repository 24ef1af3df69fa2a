"""Unit tests for regions and address-space maps."""

import pytest

from repro.common.errors import AddressError, ConfigurationError
from repro.common.types import PageKind
from repro.vm.segments import (
    AddressSpaceMap,
    ProcessAddressSpace,
    Region,
    RegionKind,
)

PAGE = 128


class TestRegionKind:
    def test_writability(self):
        assert RegionKind.HEAP.writable
        assert RegionKind.STACK.writable
        assert RegionKind.DATA.writable
        assert not RegionKind.CODE.writable
        assert not RegionKind.FILE.writable

    def test_backing_kinds(self):
        assert RegionKind.HEAP.page_kind is PageKind.ZERO_FILL
        assert RegionKind.STACK.page_kind is PageKind.ZERO_FILL
        assert RegionKind.CODE.page_kind is PageKind.FILE
        assert RegionKind.DATA.page_kind is PageKind.FILE
        assert RegionKind.FILE.page_kind is PageKind.FILE


class TestRegion:
    def test_bounds(self):
        region = Region("r", RegionKind.HEAP, 0x1000, 0x200)
        assert region.end == 0x1200
        assert region.contains(0x1000)
        assert region.contains(0x11FF)
        assert not region.contains(0x1200)

    @pytest.mark.parametrize("kind", list(RegionKind))
    def test_attributes_follow_kind_outside_equality_and_repr(self, kind):
        read = Region("r", kind, 0x1000, 0x200)
        unread = Region("r", kind, 0x1000, 0x200)
        assert read.writable is kind.writable
        assert read.page_kind is kind.page_kind
        assert read == unread and hash(read) == hash(unread)
        assert repr(read) == repr(unread) == (
            f"Region(name='r', kind={kind!r}, start=4096, size=512, "
            f"pid=0)"
        )


class TestAddressSpaceMap:
    def test_lookup_finds_containing_region(self):
        space_map = AddressSpaceMap(PAGE)
        region = space_map.add(
            Region("heap", RegionKind.HEAP, PAGE, 4 * PAGE)
        )
        assert space_map.region_of(PAGE + 5) is region

    def test_lookup_outside_regions_is_none(self):
        space_map = AddressSpaceMap(PAGE)
        space_map.add(Region("heap", RegionKind.HEAP, PAGE, PAGE))
        assert space_map.region_of(0) is None
        assert space_map.region_of(10 * PAGE) is None

    def test_lookup_in_gap_between_regions(self):
        space_map = AddressSpaceMap(PAGE)
        space_map.add(Region("a", RegionKind.HEAP, 0, PAGE))
        space_map.add(Region("b", RegionKind.HEAP, 4 * PAGE, PAGE))
        assert space_map.region_of(2 * PAGE) is None

    def test_overlap_rejected(self):
        space_map = AddressSpaceMap(PAGE)
        space_map.add(Region("a", RegionKind.HEAP, 0, 2 * PAGE))
        with pytest.raises(ConfigurationError):
            space_map.add(Region("b", RegionKind.HEAP, PAGE, PAGE))

    def test_misaligned_region_rejected(self):
        space_map = AddressSpaceMap(PAGE)
        with pytest.raises(ConfigurationError):
            space_map.add(Region("a", RegionKind.HEAP, 5, PAGE))

    def test_empty_region_rejected(self):
        space_map = AddressSpaceMap(PAGE)
        with pytest.raises(ConfigurationError):
            space_map.add(Region("a", RegionKind.HEAP, 0, 0))

    def test_sealed_map_rejects_additions(self):
        space_map = AddressSpaceMap(PAGE)
        space_map.seal()
        with pytest.raises(ConfigurationError):
            space_map.add(Region("a", RegionKind.HEAP, 0, PAGE))

    def test_total_pages(self):
        space_map = AddressSpaceMap(PAGE)
        space_map.add(Region("a", RegionKind.HEAP, 0, 3 * PAGE))
        space_map.add(Region("b", RegionKind.CODE, 4 * PAGE, 2 * PAGE))
        assert space_map.total_pages() == 5


class TestProcessAddressSpace:
    def test_regions_get_guard_gaps(self):
        space_map = AddressSpaceMap(PAGE)
        space = ProcessAddressSpace(1, PAGE, 1 << 20, space_map)
        first = space.add_region("code", RegionKind.CODE, 2 * PAGE)
        second = space.add_region("heap", RegionKind.HEAP, 2 * PAGE)
        assert second.start == first.end + PAGE  # one-page guard
        assert space_map.region_of(first.end) is None

    def test_region_names_carry_pid(self):
        space_map = AddressSpaceMap(PAGE)
        space = ProcessAddressSpace(7, PAGE, 1 << 20, space_map)
        region = space.add_region("heap", RegionKind.HEAP, PAGE)
        assert region.name == "p7.heap"
        assert region.pid == 7

    def test_sizes_round_up_to_pages(self):
        space_map = AddressSpaceMap(PAGE)
        space = ProcessAddressSpace(0, PAGE, 1 << 20, space_map)
        region = space.add_region("heap", RegionKind.HEAP, PAGE + 1)
        assert region.size == 2 * PAGE

    def test_slice_overflow_rejected(self):
        space_map = AddressSpaceMap(PAGE)
        space = ProcessAddressSpace(0, PAGE, 4 * PAGE, space_map)
        with pytest.raises(AddressError):
            space.add_region("big", RegionKind.HEAP, 8 * PAGE)

    def test_misaligned_base_rejected(self):
        space_map = AddressSpaceMap(PAGE)
        with pytest.raises(ConfigurationError):
            ProcessAddressSpace(0, 5, 1 << 20, space_map)
