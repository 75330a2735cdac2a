package model

import (
	"fmt"

	"golisa/internal/bitvec"
	"golisa/internal/bitvec/kernel"
)

// State is the architectural state of a machine: one payload per scalar
// resource and one payload slice per memory resource. Payloads are flat
// uint64s, zero-extended at their resource's width (the widths live in
// the Resource), so the threaded-code engines read and write them
// directly while the bitvec.Value methods below serve everything else.
// It is the paper's "memory model" made executable.
type State struct {
	m       *Model
	Scalars []uint64
	Arrays  [][]uint64

	// Pending non-blocking writes to latch resources, applied in order by
	// Commit at the end of each control step (last write wins).
	pendingScalars []pendingScalar
	pendingElems   []pendingElem

	// OnWrite, when non-nil, observes every scalar resource write in
	// program order (at issue time, before latch commit). Alias writes
	// report the underlying resource with the merged value. OnWriteElem
	// does the same for memory element writes. Nil costs one comparison.
	OnWrite     func(r *Resource, v uint64)
	OnWriteElem func(r *Resource, addr uint64, v uint64)
}

type pendingScalar struct {
	r *Resource
	v uint64
}

type pendingElem struct {
	r    *Resource
	addr uint64
	v    uint64
}

// AssignSlots numbers the resources into state slots. Called once by sema
// after all resources are registered.
func (m *Model) AssignSlots() {
	scalar, array := 0, 0
	for _, r := range m.Resources {
		if r.IsAlias {
			r.Slot = -1
			continue
		}
		if r.IsMemory() {
			r.Slot = array
			array++
		} else {
			r.Slot = scalar
			scalar++
		}
	}
}

// MaxStateElems is the most memory elements a model may declare, summed
// over all its memories and banks; sema rejects a model above it. NewState
// allocates every element eagerly for every simulator (8 bytes each, and
// a batch runs one simulator per worker), and gosim's runners hold the
// memories in static arrays, so without a bound one malformed declaration
// such as [0x7FFFFFFFFF] exhausts host memory. The limit (32 MiB of
// elements per State) admits the paper's Example 1 resource section
// (about 1.1M elements) and leaves wide room above the stock models,
// which declare at most 0x4000 elements per memory. It is also the most
// words an assembled image may span when the model has no program memory.
const MaxStateElems = 1 << 22

// NewState allocates zeroed state for the model.
func NewState(m *Model) *State {
	s := &State{m: m}
	for _, r := range m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			s.Arrays = append(s.Arrays, make([]uint64, r.Total()))
		} else {
			s.Scalars = append(s.Scalars, 0)
		}
	}
	return s
}

// Model returns the model this state belongs to.
func (s *State) Model() *Model { return s.m }

// Reset zeroes all resources and drops pending latch writes.
func (s *State) Reset() {
	s.pendingScalars = s.pendingScalars[:0]
	s.pendingElems = s.pendingElems[:0]
	clear(s.Scalars)
	for _, a := range s.Arrays {
		clear(a)
	}
}

// Read returns the value of a scalar resource, resolving aliases.
func (s *State) Read(r *Resource) bitvec.Value {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		return base.Slice(r.AliasHi, r.AliasLo)
	}
	return bitvec.New(s.Scalars[r.Slot], r.Width)
}

// Write stores v into a scalar resource (truncated to its width),
// resolving aliases. Writes to LATCH resources are buffered until Commit.
func (s *State) Write(r *Resource, v bitvec.Value) {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		s.Write(r.AliasOf, base.InsertSlice(r.AliasHi, r.AliasLo, v.Uint()))
		return
	}
	s.Set(r, v.Uint())
}

// Set stores the payload v into the non-alias scalar resource r,
// truncated to its width. It is the one scalar write path: it reports
// the write to OnWrite and buffers LATCH resources until Commit.
func (s *State) Set(r *Resource, v uint64) {
	v &= kernel.Mask(r.Width)
	if s.OnWrite != nil {
		s.OnWrite(r, v)
	}
	if r.Latch {
		s.pendingScalars = append(s.pendingScalars, pendingScalar{r, v})
		return
	}
	s.Scalars[r.Slot] = v
}

// WriteNow stores v into a scalar resource bypassing latch buffering
// (used by reset and external pokes).
func (s *State) WriteNow(r *Resource, v bitvec.Value) {
	if r.IsAlias {
		base := s.Read(r.AliasOf)
		s.WriteNow(r.AliasOf, base.InsertSlice(r.AliasHi, r.AliasLo, v.Uint()))
		return
	}
	s.Scalars[r.Slot] = v.Uint() & kernel.Mask(r.Width)
}

// Commit applies pending latch writes in program order (last write wins) and
// clears the buffers. The simulator calls it at the end of every control
// step, giving LATCH resources Verilog-style non-blocking semantics.
func (s *State) Commit() {
	for _, p := range s.pendingScalars {
		s.Scalars[p.r.Slot] = p.v
	}
	s.pendingScalars = s.pendingScalars[:0]
	for _, p := range s.pendingElems {
		s.Arrays[p.r.Slot][p.addr-p.r.Base] = p.v
	}
	s.pendingElems = s.pendingElems[:0]
}

// elemIndex translates an address to an element index with bounds checking.
func (r *Resource) elemIndex(addr uint64) (uint64, error) {
	if addr < r.Base {
		return 0, fmt.Errorf("%s: address %#x below base %#x", r.Name, addr, r.Base)
	}
	i := addr - r.Base
	if i >= r.Size {
		return 0, fmt.Errorf("%s: address %#x out of range (size %#x, base %#x)", r.Name, addr, r.Size, r.Base)
	}
	return i, nil
}

// ReadElem reads memory element at addr (bank 0 for banked memories).
func (s *State) ReadElem(r *Resource, addr uint64) (bitvec.Value, error) {
	i, err := r.elemIndex(addr)
	if err != nil {
		return bitvec.Value{}, err
	}
	return bitvec.New(s.Arrays[r.Slot][i], r.Width), nil
}

// WriteElem writes memory element at addr. Writes to LATCH memories are
// buffered until Commit.
func (s *State) WriteElem(r *Resource, addr uint64, v bitvec.Value) error {
	if _, err := r.elemIndex(addr); err != nil {
		return err
	}
	s.SetElem(r, addr, v.Uint())
	return nil
}

// SetElem stores the payload v, truncated to r's width, into element addr
// of memory r; the caller has checked that addr lies in [Base, Base+Size).
// It is the one memory write path: it reports the write to OnWriteElem
// and buffers LATCH memories until Commit.
func (s *State) SetElem(r *Resource, addr, v uint64) {
	v &= kernel.Mask(r.Width)
	if s.OnWriteElem != nil {
		s.OnWriteElem(r, addr, v)
	}
	if r.Latch {
		s.pendingElems = append(s.pendingElems, pendingElem{r, addr, v})
		return
	}
	s.Arrays[r.Slot][addr-r.Base] = v
}

// ReadBanked reads element addr of the given bank of a banked memory.
func (s *State) ReadBanked(r *Resource, bank, addr uint64) (bitvec.Value, error) {
	if r.Banks <= 0 {
		return bitvec.Value{}, fmt.Errorf("%s: not a banked memory", r.Name)
	}
	if bank >= uint64(r.Banks) {
		return bitvec.Value{}, fmt.Errorf("%s: bank %d out of range (%d banks)", r.Name, bank, r.Banks)
	}
	i, err := r.elemIndex(addr)
	if err != nil {
		return bitvec.Value{}, err
	}
	return bitvec.New(s.Arrays[r.Slot][bank*r.Size+i], r.Width), nil
}

// WriteBanked writes element addr of the given bank of a banked memory.
// Banked writes take effect immediately and are not reported to
// OnWriteElem.
func (s *State) WriteBanked(r *Resource, bank, addr uint64, v bitvec.Value) error {
	if r.Banks <= 0 {
		return fmt.Errorf("%s: not a banked memory", r.Name)
	}
	if bank >= uint64(r.Banks) {
		return fmt.Errorf("%s: bank %d out of range (%d banks)", r.Name, bank, r.Banks)
	}
	i, err := r.elemIndex(addr)
	if err != nil {
		return err
	}
	s.Arrays[r.Slot][bank*r.Size+i] = v.Uint() & kernel.Mask(r.Width)
	return nil
}

// Clone deep-copies the state (used by the cross-simulator equivalence
// experiment).
func (s *State) Clone() *State {
	c := &State{m: s.m}
	c.Scalars = append([]uint64(nil), s.Scalars...)
	c.Arrays = make([][]uint64, len(s.Arrays))
	for i, a := range s.Arrays {
		c.Arrays[i] = append([]uint64(nil), a...)
	}
	return c
}

// Equal reports whether two states of structurally identical models hold
// identical values, returning the first differing resource name when they do
// not. States from two separately built instances of the same description
// compare fine (the cross-simulator equivalence experiment relies on this).
func (s *State) Equal(o *State) (bool, string) {
	if len(s.m.Resources) != len(o.m.Resources) {
		return false, "different models"
	}
	for i, r := range s.m.Resources {
		or := o.m.Resources[i]
		if r.Name != or.Name || r.Width != or.Width || r.Total() != or.Total() {
			return false, "different models"
		}
	}
	for _, r := range s.m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			a, b := s.Arrays[r.Slot], o.Arrays[r.Slot]
			for i := range a {
				if a[i] != b[i] {
					return false, fmt.Sprintf("%s[%#x]", r.Name, uint64(i)+r.Base)
				}
			}
		} else if s.Scalars[r.Slot] != o.Scalars[r.Slot] {
			return false, r.Name
		}
	}
	return true, ""
}
