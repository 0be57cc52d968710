package ir

import (
	"fmt"
	"math"
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, globals, functions and instructions.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ref returns the short reference used when the value appears as an
	// operand in the textual form, e.g. "%v3", "@main", "42".
	Ref() string
}

// Const is implemented by all constant values.
type Const interface {
	Value
	isConst()
}

// ConstInt is a constant integer value. The value is stored sign-agnostic in
// a uint64 and truncated to the type's width.
type ConstInt struct {
	Ty *Type
	V  uint64
}

// NewInt returns an integer constant of the given type, truncated to the
// type's bit width.
func NewInt(ty *Type, v int64) *ConstInt {
	if !ty.IsInt() {
		panic("ir: NewInt with non-integer type")
	}
	return &ConstInt{Ty: ty, V: truncToBits(uint64(v), ty.Bits)}
}

// NewBool returns an i1 constant.
func NewBool(b bool) *ConstInt {
	if b {
		return &ConstInt{Ty: I1, V: 1}
	}
	return &ConstInt{Ty: I1, V: 0}
}

func truncToBits(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}

// Type returns the constant's type.
func (c *ConstInt) Type() *Type { return c.Ty }

// Ref renders the constant as a decimal literal (signed interpretation).
func (c *ConstInt) Ref() string { return strconv.FormatInt(c.Signed(), 10) }

// Signed returns the value sign-extended from the type width to 64 bits.
func (c *ConstInt) Signed() int64 {
	b := c.Ty.Bits
	if b >= 64 {
		return int64(c.V)
	}
	v := c.V & (1<<uint(b) - 1)
	if v&(1<<uint(b-1)) != 0 {
		v |= ^uint64(0) << uint(b)
	}
	return int64(v)
}

// Unsigned returns the value zero-extended to 64 bits.
func (c *ConstInt) Unsigned() uint64 { return truncToBits(c.V, c.Ty.Bits) }

func (c *ConstInt) isConst() {}

// ConstFloat is a constant floating-point value.
type ConstFloat struct {
	Ty *Type
	V  float64
}

// NewFloat returns a floating-point constant of the given type.
func NewFloat(ty *Type, v float64) *ConstFloat {
	if !ty.IsFloat() {
		panic("ir: NewFloat with non-float type")
	}
	if ty.Bits == 32 {
		v = float64(float32(v))
	}
	return &ConstFloat{Ty: ty, V: v}
}

// Type returns the constant's type.
func (c *ConstFloat) Type() *Type { return c.Ty }

// Ref renders the constant as a decimal literal.
func (c *ConstFloat) Ref() string {
	if math.IsInf(c.V, 1) {
		return "+inf"
	}
	if math.IsInf(c.V, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(c.V, 'g', -1, 64)
}

func (c *ConstFloat) isConst() {}

// ConstNull is the null pointer constant of a pointer type.
type ConstNull struct {
	Ty *Type
}

// NewNull returns a null constant of the given pointer type.
func NewNull(ty *Type) *ConstNull {
	if !ty.IsPointer() {
		panic("ir: NewNull with non-pointer type")
	}
	return &ConstNull{Ty: ty}
}

// Type returns the constant's type.
func (c *ConstNull) Type() *Type { return c.Ty }

// Ref renders the constant.
func (c *ConstNull) Ref() string { return "null" }

func (c *ConstNull) isConst() {}

// ConstPtr is a constant pointer with a fixed address value. LLVM expresses
// such constants as inttoptr constant expressions; the instrumentation uses
// them for wide-bound sentinels.
type ConstPtr struct {
	Ty   *Type
	Addr uint64
}

// NewConstPtr returns a constant pointer of the given pointer type.
func NewConstPtr(ty *Type, addr uint64) *ConstPtr {
	if !ty.IsPointer() {
		panic("ir: NewConstPtr with non-pointer type")
	}
	return &ConstPtr{Ty: ty, Addr: addr}
}

// Type returns the constant's type.
func (c *ConstPtr) Type() *Type { return c.Ty }

// Ref renders the constant.
func (c *ConstPtr) Ref() string { return fmt.Sprintf("inttoptr(%#x)", c.Addr) }

func (c *ConstPtr) isConst() {}

// Undef is an undefined value of some type, used where LLVM IR uses undef
// (e.g. unreachable phi inputs introduced by transformations).
type Undef struct {
	Ty *Type
}

// NewUndef returns an undef value of the given type.
func NewUndef(ty *Type) *Undef { return &Undef{Ty: ty} }

// Type returns the value's type.
func (u *Undef) Type() *Type { return u.Ty }

// Ref renders the value.
func (u *Undef) Ref() string { return "undef" }

func (u *Undef) isConst() {}

// Param is a formal parameter of a function.
type Param struct {
	Name string
	Ty   *Type
	// Index is the zero-based position in the parameter list.
	Index int
	// Parent is the function the parameter belongs to.
	Parent *Func
}

// Type returns the parameter's type.
func (p *Param) Type() *Type { return p.Ty }

// Ref renders the parameter reference.
func (p *Param) Ref() string { return "%" + p.Name }

// SameValue reports whether two values are the same SSA value or equal
// constants. It is used by the dominance-based check elimination to decide
// whether two checks guard the same pointer.
func SameValue(a, b Value) bool {
	if a == b {
		return true
	}
	switch ca := a.(type) {
	case *ConstInt:
		cb, ok := b.(*ConstInt)
		return ok && ca.Ty.Equal(cb.Ty) && ca.Unsigned() == cb.Unsigned()
	case *ConstFloat:
		cb, ok := b.(*ConstFloat)
		return ok && ca.Ty.Equal(cb.Ty) && ca.V == cb.V
	case *ConstNull:
		_, ok := b.(*ConstNull)
		return ok
	case *ConstPtr:
		cb, ok := b.(*ConstPtr)
		return ok && ca.Addr == cb.Addr
	}
	return false
}

// fmtValue renders a value with its type for diagnostics.
func fmtValue(v Value) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s %s", v.Type(), v.Ref())
}
