// Package softbound implements the SoftBound runtime data structures
// (Nagarakatte et al., PLDI'09, with the data-structure refinements of the
// later CETS/SNAPL work the paper adopts): disjoint bounds metadata for
// in-memory pointers kept in a trie keyed by the pointer's location, and a
// shadow stack that communicates bounds across function calls. Figure 2 of
// the paper shows the check; Figure 6 shows the memcpy wrapper this package's
// wrapper registry models.
package softbound

// Bounds is a (base, bound) pair: the pointer may access [Base, Bound).
type Bounds struct {
	Base  uint64
	Bound uint64
}

// WideBounds allow access to the whole address space. They are used where
// SoftBound cannot know the real bounds but must not reject valid programs:
// size-zero external array declarations and integer-to-pointer casts under
// the -mi-sb-*-wide-* configuration flags (Sections 4.3, 4.4).
var WideBounds = Bounds{Base: 0, Bound: ^uint64(0)}

// NullBounds reject every access; dereferencing a pointer with null bounds
// reports a violation. They are the stricter alternative for inttoptr casts.
var NullBounds = Bounds{}

// IsWide reports whether b is the wide-bounds sentinel.
func (b Bounds) IsWide() bool { return b == WideBounds }

// IsNull reports whether b is the null-bounds sentinel.
func (b Bounds) IsNull() bool { return b == Bounds{} }

// Check validates an access of width bytes at ptr (Figure 2 of the paper):
//
//	ptr >= base && ptr + width <= bound
func (b Bounds) Check(ptr, width uint64) bool {
	return ptr >= b.Base && ptr+width <= b.Bound && ptr+width >= ptr
}

// trie parameters: the bottom level groups pointer-sized slots; the top
// level is the Go map. A real implementation uses a two-level table indexed
// by address bits (Nagarakatte 2012, ch. 3); the VM's cost model charges the
// equivalent two dependent loads per lookup regardless of this host-side
// representation.
const (
	slotShift  = 3 // metadata is keyed per 8-byte-aligned pointer slot
	leafBits   = 10
	leafSize   = 1 << leafBits
	leafMask   = leafSize - 1
	leafShift  = slotShift
	indexShift = leafShift + leafBits
)

type trieLeaf struct {
	bounds [leafSize]Bounds
	valid  [leafSize]bool
}

// Trie stores bounds metadata for pointers held in memory, keyed by the
// address the pointer value is stored at. Loading a pointer from memory
// loads its bounds from here; storing a pointer stores them (Table 1).
type Trie struct {
	leaves map[uint64]*trieLeaf
	// Lookups and Stores count runtime metadata operations.
	Lookups uint64
	Stores  uint64
	// Misses counts lookups for which no metadata was ever recorded; the
	// runtime returns NullBounds then, matching the behaviour that makes
	// uninstrumented pointer stores (e.g. the obfuscated swap of Figure 7)
	// produce stale or missing bounds.
	Misses uint64
}

// NewTrie returns an empty metadata trie.
func NewTrie() *Trie {
	return &Trie{leaves: make(map[uint64]*trieLeaf)}
}

func (t *Trie) slot(addr uint64) (uint64, uint64) {
	s := addr >> slotShift
	return s >> leafBits, s & leafMask
}

// Lookup returns the bounds recorded for the pointer stored at addr. The
// second result is false when no metadata exists (the returned bounds are
// then NullBounds).
func (t *Trie) Lookup(addr uint64) (Bounds, bool) {
	t.Lookups++
	hi, lo := t.slot(addr)
	leaf := t.leaves[hi]
	if leaf == nil || !leaf.valid[lo] {
		t.Misses++
		return NullBounds, false
	}
	return leaf.bounds[lo], true
}

// Store records bounds for the pointer stored at addr.
func (t *Trie) Store(addr uint64, b Bounds) {
	t.Stores++
	hi, lo := t.slot(addr)
	leaf := t.leaves[hi]
	if leaf == nil {
		leaf = &trieLeaf{}
		t.leaves[hi] = leaf
	}
	leaf.bounds[lo] = b
	leaf.valid[lo] = true
}

// Invalidate removes metadata for the slot containing addr. Storing a
// non-pointer value over a pointer slot must invalidate the old bounds;
// otherwise a later pointer load would see stale metadata.
func (t *Trie) Invalidate(addr uint64) {
	hi, lo := t.slot(addr)
	if leaf := t.leaves[hi]; leaf != nil {
		leaf.valid[lo] = false
	}
}

// InvalidateRange removes metadata for all slots overlapping
// [addr, addr+n). Used by memset-style wrappers.
func (t *Trie) InvalidateRange(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr &^ uint64(1<<slotShift-1)
	for a := first; a < addr+n; a += 1 << slotShift {
		t.Invalidate(a)
	}
}

// CopyRange copies metadata for the pointer slots fully contained in
// [src, src+n) to the corresponding slots at dst. This is the
// copy_metadata of the memcpy wrapper (Figure 6). Slots in the destination
// whose source has no metadata are invalidated.
func (t *Trie) CopyRange(dst, src, n uint64) {
	if n == 0 {
		return
	}
	step := uint64(1) << slotShift
	// Only slot-aligned full-slot copies transport a pointer faithfully; a
	// partial copy destroys the pointer value anyway. Walk the slot-aligned
	// source addresses fully inside [src, src+n).
	start := (src + step - 1) &^ (step - 1)
	for sa := start; sa+step <= src+n; sa += step {
		da := dst + (sa - src)
		if da%step != 0 {
			// Destination not slot-aligned: the copied pointer cannot be
			// tracked; drop metadata for the touched slots.
			t.Invalidate(da)
			t.Invalidate(da + step)
			continue
		}
		if b, ok := t.Lookup(sa); ok {
			t.Store(da, b)
		} else {
			t.Invalidate(da)
		}
	}
}

// ShadowStack propagates bounds across calls. It is a flat array addressed
// relative to a stack pointer; frames are not cleared on allocation, so an
// uninstrumented callee leaves *stale* values in its return slot — exactly
// the failure mode Section 4.3 of the paper describes for external libraries.
type ShadowStack struct {
	slots []Bounds
	sp    int // index of the current frame base
	frame []int
	// Pushes and Pops count runtime operations for the cost model.
	Pushes uint64
	Pops   uint64
}

// NewShadowStack returns a shadow stack with room for capacity entries and
// at least one frame. It grows on demand as frames are allocated.
func NewShadowStack(capacity int) *ShadowStack {
	return &ShadowStack{slots: make([]Bounds, max(capacity, maxShadowArgs+1))}
}

// AllocateFrame opens a call frame with nArgs pointer-argument slots and one
// return slot (slot layout: [ret, arg1, arg2, ...], 1-based arg indexing like
// the lookup_bs(1) calls in Figure 6). The stack grows to cover the whole
// frame, whatever nArgs is, so a callee reading a slot its caller never
// wrote gets zero or stale bounds rather than an out-of-range access.
func (s *ShadowStack) AllocateFrame(nArgs int) {
	s.frame = append(s.frame, s.sp)
	s.sp += s.frameSize()
	if need := s.sp + max(nArgs, maxShadowArgs) + 1; need > len(s.slots) {
		s.slots = append(s.slots, make([]Bounds, need-len(s.slots))...)
	}
	s.Pushes++
}

// frameSize returns the size of the current frame. Frames are sized lazily:
// the caller knows nArgs; we conservatively keep a fixed maximum per frame.
func (s *ShadowStack) frameSize() int { return maxShadowArgs + 1 }

// maxShadowArgs bounds the number of pointer arguments communicated per call.
const maxShadowArgs = 15

// SetArg records the bounds of the i-th (1-based) pointer argument of the
// frame being set up by the caller.
func (s *ShadowStack) SetArg(i int, b Bounds) {
	s.slots[s.sp+i] = b
}

// Arg returns the bounds of the i-th (1-based) pointer argument of the
// current frame, as read by the callee. Reading a slot the caller never
// wrote yields stale data from a previous, deeper call — not an error.
func (s *ShadowStack) Arg(i int) Bounds {
	return s.slots[s.sp+i]
}

// SetRet records the bounds of the returned pointer (written by the callee).
func (s *ShadowStack) SetRet(b Bounds) { s.slots[s.sp] = b }

// Ret returns the bounds of the returned pointer (read by the caller after
// the call). If the callee was uninstrumented the slot holds stale bounds.
func (s *ShadowStack) Ret() Bounds { return s.slots[s.sp] }

// PopFrame closes the current frame.
func (s *ShadowStack) PopFrame() {
	n := len(s.frame)
	s.sp = s.frame[n-1]
	s.frame = s.frame[:n-1]
	s.Pops++
}

// Depth returns the current frame nesting depth.
func (s *ShadowStack) Depth() int { return len(s.frame) }
