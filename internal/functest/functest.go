// Package functest generates and runs the artifact-style functional suite:
// small C programs with and without spatial memory-safety violations, each
// executed under both instrumentations and validated against the expected
// outcome (Appendix A.5 of the paper: "programs which contain memory safety
// violations such as heap, stack or global variable out-of-bounds accesses
// are correctly identified and no error is reported on C programs without
// out-of-bounds accesses").
//
// The expected outcome is computed from the mechanisms' documented
// guarantees:
//
//   - SoftBound detects every access outside the exact allocation bounds.
//   - Low-Fat Pointers detect accesses outside the padded power-of-two slot
//     (allocations are padded by one byte for one-past-the-end pointers);
//     overflows into the padding are missed by design (Section 4).
package functest

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/opt"
	"repro/internal/vm"
)

// AllocKind is where the accessed object lives.
type AllocKind int

// Allocation kinds.
const (
	Heap AllocKind = iota
	Stack
	Global
)

// String names the kind.
func (k AllocKind) String() string {
	switch k {
	case Heap:
		return "heap"
	case Stack:
		return "stack"
	}
	return "global"
}

// ElemType is the element type of the accessed array.
type ElemType struct {
	// C is the C type name; Size its size in bytes.
	C    string
	Size int
}

// The element types the suite covers.
var ElemTypes = []ElemType{
	{"char", 1},
	{"int", 4},
	{"long", 8},
}

// Case is one generated program.
type Case struct {
	Kind AllocKind
	Elem ElemType
	// Count is the number of array elements.
	Count int
	// Index is the accessed element index (may be negative or past the
	// end).
	Index int
	// Write selects a store (true) or a load (false).
	Write bool
}

// Name renders a stable identifier.
func (c *Case) Name() string {
	op := "read"
	if c.Write {
		op = "write"
	}
	return fmt.Sprintf("%s_%s%d_idx%+d_%s", c.Kind, c.Elem.C, c.Count, c.Index, op)
}

// InBounds reports whether the access is within the C object.
func (c *Case) InBounds() bool {
	return c.Index >= 0 && c.Index < c.Count
}

// Source generates the C program. The access index is laundered through an
// opaque global so the optimizer cannot fold the access away or prove
// anything about it.
func (c *Case) Source() string {
	decl := ""
	setup := ""
	switch c.Kind {
	case Heap:
		setup = fmt.Sprintf("%s *a = (%s *)malloc(%d * sizeof(%s));", c.Elem.C, c.Elem.C, c.Count, c.Elem.C)
	case Stack:
		setup = fmt.Sprintf("%s a[%d];", c.Elem.C, c.Count)
	case Global:
		decl = fmt.Sprintf("%s garr[%d] = {1};\n", c.Elem.C, c.Count)
		setup = fmt.Sprintf("%s *a = garr;", c.Elem.C)
	}
	access := "sink = (long)a[idx];"
	if c.Write {
		access = fmt.Sprintf("a[idx] = (%s)sink;", c.Elem.C)
	}
	return fmt.Sprintf(`%s
int opaque_index = %d;
long sink = 7;
int main() {
    int idx;
    %s
    idx = opaque_index;
    %s
    printf("done %%ld\n", sink);
    return 0;
}`, decl, c.Index, setup, access)
}

// ExpectDetected reports whether the given mechanism must report the access.
func (c *Case) ExpectDetected(mech core.Mech) bool {
	if c.InBounds() {
		return false
	}
	if mech == core.MechSoftBound {
		return true
	}
	// Low-Fat Pointers: detected iff the access leaves the padded
	// power-of-two slot.
	objSize := c.Count * c.Elem.Size
	slot := int(lowfat.AllocSize(lowfat.RegionForSize(uint64(objSize))))
	if slot <= 0 { // oversized fallback: wide bounds, never detected
		return false
	}
	offset := c.Index * c.Elem.Size
	return offset < 0 || offset+c.Elem.Size > slot
}

// Generate enumerates the suite: every allocation kind, element type and a
// spread of in-bounds and out-of-bounds indices.
func Generate() []Case {
	var cases []Case
	counts := []int{5, 16}
	for _, kind := range []AllocKind{Heap, Stack, Global} {
		for _, et := range ElemTypes {
			for _, n := range counts {
				indices := []int{
					0, n / 2, n - 1, // in bounds
					n,         // one past the end
					n + 1,     // just past
					2*n + 9,   // far past (beyond any padding)
					-1,        // just before
					-(n + 17), // far before
				}
				for _, idx := range indices {
					for _, write := range []bool{false, true} {
						cases = append(cases, Case{
							Kind: kind, Elem: et, Count: n, Index: idx, Write: write,
						})
					}
				}
			}
		}
	}
	return cases
}

// Outcome is the result of running one case under one mechanism.
type Outcome struct {
	Detected bool
	Err      error
}

// Run compiles, instruments and executes the case under the mechanism on
// the reference tree interpreter.
func Run(c *Case, mech core.Mech) (Outcome, error) {
	return RunEngine(c, mech, bytecode.EngineTree)
}

// RunEngine is Run with an explicit execution engine.
func RunEngine(c *Case, mech core.Mech, engine bytecode.EngineKind) (Outcome, error) {
	m, err := cc.Compile(c.Name(), cc.Source{Name: "case.c", Code: c.Source()})
	if err != nil {
		return Outcome{}, fmt.Errorf("compile %s: %w", c.Name(), err)
	}
	cfg := core.PaperSoftBound()
	vopts := vm.Options{Mechanism: vm.MechSoftBound}
	if mech == core.MechLowFat {
		cfg = core.PaperLowFat()
		vopts = vm.Options{Mechanism: vm.MechLowFat, LowFatHeap: true, LowFatStack: true, LowFatGlobals: true}
	}
	cfg.OptDominance = true
	var ierr error
	opt.RunPipeline(m, opt.EPVectorizerStart, func(mod *ir.Module) {
		_, ierr = core.Instrument(mod, cfg)
	}, opt.PipelineOptions{Level: 3})
	if ierr != nil {
		return Outcome{}, fmt.Errorf("instrument %s: %w", c.Name(), ierr)
	}
	machine, err := vm.New(m, vopts)
	if err != nil {
		return Outcome{}, err
	}
	_, rerr := bytecode.RunOn(engine, machine)
	if rerr != nil {
		if _, ok := rerr.(*vm.ViolationError); ok {
			return Outcome{Detected: true, Err: rerr}, nil
		}
		// Hardware faults (e.g. far-out-of-bounds reads hitting the null
		// guard) count as crashes, not detections.
		return Outcome{Detected: false, Err: rerr}, nil
	}
	return Outcome{}, nil
}
