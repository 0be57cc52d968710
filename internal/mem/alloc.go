package mem

import (
	"fmt"
	"sort"
)

// Address-space layout of the simulated process. The low-fat regions occupy
// the bottom of the space (see internal/lowfat); everything the standard
// toolchain places lives above them, so standard addresses are never
// misidentified as low-fat.
const (
	// GlobalsBase is where instrumented module globals are placed when the
	// low-fat global sections are not in use.
	GlobalsBase = 0x4000_0000_0000
	// ExtLibBase is where globals of uninstrumented libraries live (e.g.
	// stdout/stderr of the C standard library, Section 4.3).
	ExtLibBase = 0x4800_0000_0000
	// HeapBase is the arena of the standard (glibc-like) allocator.
	HeapBase = 0x5000_0000_0000
	// HeapLimit bounds the standard heap.
	HeapLimit = 0x6000_0000_0000
	// StackTop is the initial stack pointer; the stack grows down.
	StackTop = 0x7000_0000_0000
	// StackLimit bounds stack growth.
	StackLimit = 0x6800_0000_0000
)

// AllocError reports an allocation failure.
type AllocError struct{ Size uint64 }

// Error implements the error interface.
func (e *AllocError) Error() string { return fmt.Sprintf("mem: cannot allocate %d bytes", e.Size) }

// StdAllocator is a malloc/free-style first-fit allocator over a fixed arena
// of the simulated address space. Block metadata is kept host-side (it is not
// corruptible by simulated out-of-bounds writes; the instrumentations under
// study protect program data, not allocator internals).
type StdAllocator struct {
	base, limit uint64
	brk         uint64
	// sizes maps live allocation base -> requested size.
	sizes map[uint64]uint64
	// free lists: size -> bases (reuse exact sizes only; simple but
	// adequate for benchmark workloads).
	free map[uint64][]uint64
	// Allocated tracks the total live bytes for statistics.
	Allocated uint64
	// Peak tracks the maximum of Allocated.
	Peak uint64
}

// NewStdAllocator returns an allocator over [base, limit).
func NewStdAllocator(base, limit uint64) *StdAllocator {
	return &StdAllocator{
		base: base, limit: limit, brk: base,
		sizes: make(map[uint64]uint64),
		free:  make(map[uint64][]uint64),
	}
}

const allocAlign = 16

// Alloc reserves size bytes (at least 1) aligned to 16 and returns the base
// address.
func (a *StdAllocator) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	aligned := (size + allocAlign - 1) &^ uint64(allocAlign-1)
	if fl := a.free[aligned]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		a.free[aligned] = fl[:len(fl)-1]
		a.sizes[addr] = size
		a.account(size)
		return addr, nil
	}
	if a.brk+aligned > a.limit || a.brk+aligned < a.brk {
		return 0, &AllocError{Size: size}
	}
	addr := a.brk
	a.brk += aligned
	a.sizes[addr] = size
	a.account(size)
	return addr, nil
}

func (a *StdAllocator) account(size uint64) {
	a.Allocated += size
	if a.Allocated > a.Peak {
		a.Peak = a.Allocated
	}
}

// Free releases the allocation at addr. Freeing an address that is not a live
// allocation base is an error (a heap-corruption analog).
func (a *StdAllocator) Free(addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("mem: invalid free of %#x", addr)
	}
	delete(a.sizes, addr)
	a.Allocated -= size
	aligned := (size + allocAlign - 1) &^ uint64(allocAlign-1)
	a.free[aligned] = append(a.free[aligned], addr)
	return nil
}

// SizeOf returns the requested size of the live allocation at base addr.
// The second result is false if addr is not a live allocation base.
func (a *StdAllocator) SizeOf(addr uint64) (uint64, bool) {
	s, ok := a.sizes[addr]
	return s, ok
}

// FindAllocation returns the base and size of the live allocation containing
// addr, if any. This is O(n log n) on first use after mutations and intended
// for diagnostics, not hot paths.
func (a *StdAllocator) FindAllocation(addr uint64) (base, size uint64, ok bool) {
	bases := make([]uint64, 0, len(a.sizes))
	for b := range a.sizes {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	i := sort.Search(len(bases), func(i int) bool { return bases[i] > addr })
	if i == 0 {
		return 0, 0, false
	}
	b := bases[i-1]
	s := a.sizes[b]
	if addr < b+s {
		return b, s, true
	}
	return 0, 0, false
}
