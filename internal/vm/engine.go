package vm

import "repro/internal/ir"

// This file is the exported surface that alternative execution engines
// (internal/bytecode) build on. The tree-walking interpreter in exec.go
// stays the reference semantics; an engine reuses the VM's entire runtime
// state — address space, allocators, trie, shadow stack, libc handlers,
// statistics — and only replaces the instruction dispatch.

// CostModel returns the cost model the VM charges operations against.
func (v *VM) CostModel() *CostModel { return v.cost }

// Options returns the options the VM was created with.
func (v *VM) Options() Options { return v.opts }

// StepLimit returns the resolved maximum step count (MaxSteps with the
// default applied).
func (v *VM) StepLimit() uint64 { return v.maxSteps }

// SiteProfile returns the per-site counters indexed by SiteID, or nil when
// Options.SiteProfile is off. Engines sharing the VM write into the same
// slice, so both engines' profiles are read the same way.
func (v *VM) SiteProfile() []SiteCount { return v.siteProf }

// External returns the handler registered for an external function, or nil.
func (v *VM) External(name string) ExtFn { return v.externals[name] }

// FuncAddr returns the address assigned to a function value.
func (v *VM) FuncAddr(f *ir.Func) uint64 { return v.funcAddrs[f] }

// StackPointer returns the current linear stack pointer.
func (v *VM) StackPointer() uint64 { return v.sp }

// SetStackPointer moves the linear stack pointer. Engines that manage their
// own frames use it to keep the VM's view consistent for library calls.
func (v *VM) SetStackPointer(sp uint64) { v.sp = sp }

// AsExit reports whether err is the exit() unwind signal and returns the
// exit code. Engines need it to translate the signal into an exit code the
// same way Run does.
func AsExit(err error) (int32, bool) {
	if ex, ok := err.(exitSignal); ok {
		return ex.code, true
	}
	return 0, false
}

// InstrCost exposes the per-instruction cost used by the interpreter loop so
// that a compiling engine can bake identical costs into its bytecode.
func (c *CostModel) InstrCost(in *ir.Instr) uint64 { return c.instrCost(in) }
