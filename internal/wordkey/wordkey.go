// Package wordkey turns tuples of values into integer keys. The paper's
// access structure hashes on PBY values and then on DBY values (§5); here
// every dimension value becomes an ordinal of its dimension's domain, and a
// key — the PBY values of a spreadsheet frame, the DBY values of a cell, a
// reference sheet's dimensions, a GROUP BY key — packs its ordinals into one
// uint64 word, each dimension in its own bit field (a mixed-radix number
// whose radices are powers of two). Open-addressed tables over that word
// replace hash maps keyed by encoded key bytes: the spreadsheet engine's
// frame finder, cell tables and reference-sheet index, and the executor's
// group tables.
//
// A domain keeps types.AppendKey's equivalence: 2 and 2.0 are one ordinal
// (types.IntKeyable), -0.0 is 0, NULL is an ordinal like any other, NaN and
// the infinities key by their bits. A dictionary-coded column gives its
// codes as ordinals, an INT column whose range is narrow gives v - lo, and
// every other value is numbered through a value map. A domain is built
// once over its input and is read-only from then on, except through Grow on
// a copy its owner made (Clone).
//
// When the fields do not fit one word a layout keeps byte keys instead:
// each distinct tuple of ordinals, as bytes, is interned to a dense word.
// That is the one fallback.
package wordkey

import (
	"encoding/binary"
	"maps"
	"math"
	"math/bits"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// NoOrd marks a value that is in no domain: its key is a miss.
const NoOrd = ^uint32(0)

// maxIntRange bounds the span of an INT dimension that keys by v - lo; a
// wider one numbers its values through the value map.
const maxIntRange = 1 << 24

// valueMap numbers dimension values that no dictionary or INT range covers.
type valueMap struct {
	ints   map[int64]uint32  // INT, and FLOAT values types.IntKeyable holds integral
	floats map[uint64]uint32 // other FLOAT values, by bits
	strs   map[string]uint32
	// null, no and yes hold the ordinal plus one of NULL, FALSE and TRUE
	// (0 when absent).
	null, no, yes uint32
}

func (m *valueMap) getInt(i int64) (uint32, bool) {
	o, ok := m.ints[i]
	return o, ok
}

func (m *valueMap) getFloat(f float64) (uint32, bool) {
	if types.IntKeyable(f) {
		return m.getInt(int64(f))
	}
	o, ok := m.floats[math.Float64bits(f)]
	return o, ok
}

func (m *valueMap) getBool(b bool) (uint32, bool) {
	if b {
		return m.yes - 1, m.yes != 0
	}
	return m.no - 1, m.no != 0
}

func (m *valueMap) get(v types.Value) (uint32, bool) {
	switch v.K {
	case types.KindNull:
		return m.null - 1, m.null != 0
	case types.KindInt:
		return m.getInt(v.I)
	case types.KindFloat:
		return m.getFloat(v.F)
	case types.KindString:
		o, ok := m.strs[v.S]
		return o, ok
	case types.KindBool:
		return m.getBool(v.I != 0)
	}
	return NoOrd, false
}

// add numbers v, which the map does not hold yet.
func (m *valueMap) add(v types.Value, ord uint32) {
	switch v.K {
	case types.KindNull:
		m.null = ord + 1
	case types.KindInt:
		m.addInt(v.I, ord)
	case types.KindFloat:
		if types.IntKeyable(v.F) {
			m.addInt(int64(v.F), ord)
			return
		}
		if m.floats == nil {
			m.floats = make(map[uint64]uint32) // alloc-ok: once per domain, on its first such value
		}
		m.floats[math.Float64bits(v.F)] = ord
	case types.KindString:
		if m.strs == nil {
			m.strs = make(map[string]uint32) // alloc-ok: once per domain, on its first such value
		}
		m.strs[v.S] = ord
	case types.KindBool:
		if v.I != 0 {
			m.yes = ord + 1
		} else {
			m.no = ord + 1
		}
	}
}

func (m *valueMap) addInt(i int64, ord uint32) {
	if m.ints == nil {
		m.ints = make(map[int64]uint32) // alloc-ok: once per domain, on its first such value
	}
	m.ints[i] = ord
}

func (m valueMap) clone() valueMap {
	cp := m
	cp.ints, cp.floats, cp.strs = maps.Clone(m.ints), maps.Clone(m.floats), maps.Clone(m.strs)
	return cp
}

// Domain maps one dimension's values to ordinals 0, 1, ..., Size()-1.
type Domain struct {
	// dict, when set, is the dictionary-coded build column: code c < base
	// is ordinal c.
	dict *colstore.Column
	// isInt marks an INT range: v in [lo, lo+base) is ordinal v - lo.
	isInt bool
	lo    int64
	base  uint32
	// vals numbers every other value, from base on.
	vals valueMap
	size uint32
}

// Size is the number of ordinals the domain has handed out.
func (d *Domain) Size() uint32 { return d.size }

func (d *Domain) ordInt(i int64) (uint32, bool) {
	if d.isInt && i >= d.lo && uint64(i)-uint64(d.lo) < uint64(d.base) {
		return uint32(uint64(i) - uint64(d.lo)), true
	}
	return d.vals.getInt(i)
}

func (d *Domain) ordFloat(f float64) (uint32, bool) {
	if types.IntKeyable(f) {
		return d.ordInt(int64(f))
	}
	return d.vals.getFloat(f)
}

func (d *Domain) ordString(s string) (uint32, bool) {
	if d.dict != nil {
		if c, ok := d.dict.DictCode(s); ok && c < d.base {
			return c, true
		}
	}
	o, ok := d.vals.strs[s]
	return o, ok
}

// Ord returns v's ordinal, ok=false when v is in no domain.
func (d *Domain) Ord(v types.Value) (uint32, bool) {
	switch v.K {
	case types.KindInt:
		return d.ordInt(v.I)
	case types.KindFloat:
		return d.ordFloat(v.F)
	case types.KindString:
		return d.ordString(v.S)
	}
	return d.vals.get(v)
}

// Grow returns v's ordinal, numbering it first when it is new.
func (d *Domain) Grow(v types.Value) uint32 {
	if o, ok := d.Ord(v); ok {
		return o
	}
	o := d.size
	d.vals.add(v, o)
	d.size++
	return o
}

// Clone is a copy of d that Grow may write.
func (d *Domain) Clone() *Domain {
	cp := *d
	cp.vals = d.vals.clone()
	return &cp
}

// ExactWidth is the bits a field of size ordinals takes.
func ExactWidth(size uint32) uint8 {
	if size == 0 {
		return 0
	}
	return uint8(bits.Len32(size - 1))
}

// FieldWidth is the bits a field that may still grow takes: room for half
// as many values again, and at least 16 more, so an UPSERT of new values
// rarely has to re-lay a bucket's words.
func FieldWidth(size uint32) uint8 {
	return uint8(bits.Len64(uint64(size) + uint64(size/2) + 16))
}

// Layout turns a tuple of ordinals into a word: packed bit fields when
// their widths fit 64 bits, the interned tuple bytes otherwise. Width and
// Shift are read-only once laid out.
type Layout struct {
	Width, Shift []uint8
	// tuples, when non-nil, is the byte-key fallback: tuple bytes (each
	// ordinal as four little-endian bytes) to a dense word.
	tuples map[string]uint64
}

// NewLayout lays out fields of the given widths, falling back to byte keys
// when they overflow a word.
func NewLayout(width []uint8) *Layout {
	l := &Layout{Width: width, Shift: make([]uint8, len(width))}
	total := 0
	for d, w := range width {
		l.Shift[d] = uint8(total)
		total += int(w)
	}
	if total > 64 {
		l.tuples = make(map[string]uint64) // alloc-ok: once per layout, when its fields overflow a word
	}
	return l
}

// Packed reports whether a word is the packed fields themselves (no byte
// keys).
func (l *Layout) Packed() bool { return l.tuples == nil }

// Fits reports whether ordinal o has room in field d.
func (l *Layout) Fits(d int, o uint32) bool {
	return l.tuples != nil || uint64(o)>>l.Width[d] == 0
}

// Word returns the word of a tuple of ordinals (ords[d] for dimension d),
// ok=false when the tuple has none; buf is the byte-key scratch.
func (l *Layout) Word(ords []uint32, buf *[]byte) (uint64, bool) {
	if l.tuples == nil {
		var w uint64
		for d, o := range ords {
			w |= uint64(o) << l.Shift[d]
		}
		return w, true
	}
	b := (*buf)[:0]
	for _, o := range ords {
		b = binary.LittleEndian.AppendUint32(b, o)
	}
	*buf = b
	w, ok := l.tuples[string(b)]
	return w, ok
}

// Add returns the word of a tuple, interning the tuple first when the
// layout is byte-keyed and lacks it.
func (l *Layout) Add(ords []uint32, buf *[]byte) uint64 {
	if w, ok := l.Word(ords, buf); ok {
		return w
	}
	w := uint64(len(l.tuples))
	l.tuples[string(*buf)] = w
	return w
}

// Clone copies the interned tuples; the fields never change once laid out.
func (l *Layout) Clone() *Layout {
	return &Layout{Width: l.Width, Shift: l.Shift, tuples: maps.Clone(l.tuples)}
}

// Slot is one slot of an open-addressed word table: a key word and the
// position it addresses plus one (0 marks an empty slot, so a zeroed slab is
// an empty table).
type Slot struct {
	word uint64
	pos1 uint32
}

// TableSize is the slot count for n keys: a power of two at most half full.
func TableSize(n int) int {
	s := 4
	for s < 2*n {
		s <<= 1
	}
	return s
}

func slotOf(w uint64, mask int) int {
	h := w * 0x9E3779B97F4A7C15
	return int(h^h>>31) & mask
}

// Find probes t for w.
func Find(t []Slot, w uint64) (int, bool) {
	mask := len(t) - 1
	for i := slotOf(w, mask); ; i = (i + 1) & mask {
		s := &t[i]
		if s.pos1 == 0 {
			return 0, false
		}
		if s.word == w {
			return int(s.pos1 - 1), true
		}
	}
}

// Put stores w at pos and reports whether w was already present (its
// position is overwritten). t must have a free slot.
func Put(t []Slot, w uint64, pos int) bool {
	mask := len(t) - 1
	for i := slotOf(w, mask); ; i = (i + 1) & mask {
		s := &t[i]
		if s.pos1 == 0 || s.word == w {
			dup := s.pos1 != 0
			*s = Slot{word: w, pos1: uint32(pos) + 1}
			return dup
		}
	}
}

// Intern returns w's position, storing w at pos first when t lacks it
// (found=false then): one probe for a find-or-insert. t must have a free
// slot.
func Intern(t []Slot, w uint64, pos int) (at int, found bool) {
	mask := len(t) - 1
	for i := slotOf(w, mask); ; i = (i + 1) & mask {
		s := &t[i]
		if s.pos1 == 0 {
			*s = Slot{word: w, pos1: uint32(pos) + 1}
			return pos, false
		}
		if s.word == w {
			return int(s.pos1 - 1), true
		}
	}
}

// Rehash copies t's keys into a fresh table with room for n keys.
func Rehash(t []Slot, n int) []Slot {
	out := make([]Slot, TableSize(n))
	for _, s := range t {
		if s.pos1 != 0 {
			Put(out, s.word, int(s.pos1-1))
		}
	}
	return out
}

// XlatCache remembers, per probe dictionary, the ordinal of each of its
// strings in a domain, so a dictionary-coded key column costs one array read
// per probe. An entry is valid while the domain keeps its size: a domain
// only grows, and only a new value can turn a miss into a hit. The zero
// value is ready; a cache serves one goroutine.
type XlatCache struct {
	ents [4]xlatEntry
	next int
}

type xlatEntry struct {
	dom  *Domain
	size uint32
	dict []string
	xl   []uint32
}

func sameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (c *XlatCache) get(d *Domain, dict []string) []uint32 {
	for i := range c.ents {
		if e := &c.ents[i]; e.dom == d && e.size == d.size && sameDict(e.dict, dict) {
			return e.xl
		}
	}
	e := &c.ents[c.next]
	c.next = (c.next + 1) % len(c.ents)
	xl := e.xl[:0]
	for _, s := range dict {
		o, ok := d.ordString(s)
		if !ok {
			o = NoOrd
		}
		xl = append(xl, o)
	}
	*e = xlatEntry{dom: d, size: d.size, dict: dict, xl: xl}
	return xl
}

// ColOrds writes the ordinal in d of column c's row rows[k] to out[k],
// NoOrd when the value is in no domain: dictionary columns by code (through
// xc), INT columns by arithmetic, anything else through the value map.
func (d *Domain) ColOrds(c *colstore.Column, rows []int32, out []uint32, xc *XlatCache) {
	null := NoOrd
	if o, ok := d.vals.get(types.Null); ok {
		null = o
	}
	isNull := func(r int32) bool { return c.Nulls != nil && c.Nulls.Get(int(r)) }
	switch c.Kind {
	case types.KindInt:
		for k, r := range rows {
			o, ok := d.ordInt(c.Ints[r])
			out[k] = pick(o, ok, isNull(r), null)
		}
	case types.KindFloat:
		for k, r := range rows {
			o, ok := d.ordFloat(c.Floats[r])
			out[k] = pick(o, ok, isNull(r), null)
		}
	case types.KindString:
		if c.Dict == nil {
			for k, r := range rows {
				o, ok := d.ordString(c.Strs[r])
				out[k] = pick(o, ok, isNull(r), null)
			}
			return
		}
		xl := xc.get(d, c.Dict)
		for k, r := range rows {
			out[k] = pick(xl[c.Codes[r]], true, isNull(r), null)
		}
	case types.KindBool:
		for k, r := range rows {
			o, ok := d.vals.getBool(c.Ints[r] != 0)
			out[k] = pick(o, ok, isNull(r), null)
		}
	default: // all NULL
		for k := range rows {
			out[k] = null
		}
	}
}

// pick is a key column row's ordinal: null's for a NULL slot, o when the
// value has one, NoOrd otherwise.
func pick(o uint32, ok, isNull bool, null uint32) uint32 {
	switch {
	case isNull:
		return null
	case ok:
		return o
	}
	return NoOrd
}
