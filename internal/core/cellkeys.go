package core

import (
	"encoding/binary"
	"maps"
	"math"
	"math/bits"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// Cell addresses as integers. The paper's access structure hashes on PBY
// values and then on DBY values (§5); here every dimension value becomes an
// ordinal of its dimension's domain, and a key — the PBY values of a frame,
// the DBY values of a cell, a reference sheet's dimensions — packs its
// ordinals into one uint64 word, each dimension in its own bit field (a
// mixed-radix number whose radices are powers of two). The frame finder, the
// per-frame cell tables and the reference-sheet index are open-addressed
// tables over that word.
//
// A domain keeps types.AppendKey's equivalence: 2 and 2.0 are one ordinal
// (types.IntKeyable), -0.0 is 0, NULL is an ordinal like any other, NaN and
// the infinities key by their bits. A dictionary-coded build column gives
// its codes as ordinals, an INT column whose range is narrow gives v - lo,
// and every other value is numbered through a value map. Domains are built
// once per structure and shared by its buckets (and its clones); a bucket
// that must add a value — an UPSERT of a value the build never saw — copies
// the domain first, so concurrent evaluations never write shared state.
//
// When the fields do not fit one word the structure keeps byte keys
// instead: each distinct tuple of ordinals, as bytes, is interned to a dense
// word. That is the one fallback, chosen per structure at build (or per
// bucket, if an UPSERT widens a field past 64 bits).

// noOrd marks a value that is in no domain: its key is a miss.
const noOrd = ^uint32(0)

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
	n             uint32
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
	return noOrd, false
}

// add numbers v, which the map does not hold yet.
func (m *valueMap) add(v types.Value, ord uint32) {
	m.n++
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
			m.floats = make(map[uint64]uint32)
		}
		m.floats[math.Float64bits(v.F)] = ord
	case types.KindString:
		if m.strs == nil {
			m.strs = make(map[string]uint32)
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
		m.ints = make(map[int64]uint32)
	}
	m.ints[i] = ord
}

func (m valueMap) clone() valueMap {
	cp := m
	cp.ints, cp.floats, cp.strs = maps.Clone(m.ints), maps.Clone(m.floats), maps.Clone(m.strs)
	return cp
}

// domain maps one dimension's values to ordinals 0, 1, ..., size-1.
type domain struct {
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

func (d *domain) ordInt(i int64) (uint32, bool) {
	if d.isInt && i >= d.lo && uint64(i)-uint64(d.lo) < uint64(d.base) {
		return uint32(uint64(i) - uint64(d.lo)), true
	}
	return d.vals.getInt(i)
}

func (d *domain) ordFloat(f float64) (uint32, bool) {
	if types.IntKeyable(f) {
		return d.ordInt(int64(f))
	}
	return d.vals.getFloat(f)
}

func (d *domain) ordString(s string) (uint32, bool) {
	if d.dict != nil {
		if c, ok := d.dict.DictCode(s); ok && c < d.base {
			return c, true
		}
	}
	o, ok := d.vals.strs[s]
	return o, ok
}

// ord returns v's ordinal, ok=false when v is in no domain.
func (d *domain) ord(v types.Value) (uint32, bool) {
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

// grow returns v's ordinal, numbering it first when it is new.
func (d *domain) grow(v types.Value) uint32 {
	if o, ok := d.ord(v); ok {
		return o
	}
	o := d.size
	d.vals.add(v, o)
	d.size++
	return o
}

func (d *domain) clone() *domain {
	cp := *d
	cp.vals = d.vals.clone()
	return &cp
}

// fieldWidth is the bits a DBY field takes: room for half as many values
// again, and at least 16 more, so an UPSERT of new values rarely has to
// re-lay a bucket's words.
func fieldWidth(size uint32) uint8 {
	return uint8(bits.Len64(uint64(size) + uint64(size/2) + 16))
}

// keyLayout turns a tuple of ordinals into a word: packed bit fields when
// their widths fit 64 bits, the interned tuple bytes otherwise.
type keyLayout struct {
	width, shift []uint8
	// tuples, when non-nil, is the byte-key fallback: tuple bytes (each
	// ordinal as four little-endian bytes) to a dense word.
	tuples map[string]uint64
}

// newLayout lays out fields of the given widths, falling back to byte keys
// when they overflow a word.
func newLayout(width []uint8) *keyLayout {
	l := &keyLayout{width: width, shift: make([]uint8, len(width))}
	total := 0
	for d, w := range width {
		l.shift[d] = uint8(total)
		total += int(w)
	}
	if total > 64 {
		l.tuples = make(map[string]uint64)
	}
	return l
}

// fits reports whether ordinal o has room in field d.
func (l *keyLayout) fits(d int, o uint32) bool {
	return l.tuples != nil || uint64(o)>>l.width[d] == 0
}

// word returns the word of a tuple of ordinals (ords[d] for dimension d),
// ok=false when the tuple has none; buf is the byte-key scratch.
func (l *keyLayout) word(ords []uint32, buf *[]byte) (uint64, bool) {
	if l.tuples == nil {
		var w uint64
		for d, o := range ords {
			w |= uint64(o) << l.shift[d]
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

// add returns the word of a tuple, interning the tuple first when the
// layout is byte-keyed and lacks it.
func (l *keyLayout) add(ords []uint32, buf *[]byte) uint64 {
	if w, ok := l.word(ords, buf); ok {
		return w
	}
	w := uint64(len(l.tuples))
	l.tuples[string(*buf)] = w
	return w
}

// clone copies the interned tuples; the fields never change once laid out.
func (l *keyLayout) clone() *keyLayout {
	return &keyLayout{width: l.width, shift: l.shift, tuples: maps.Clone(l.tuples)}
}

// cellSlot is one slot of an open-addressed word table: a key word and the
// position it addresses plus one (0 marks an empty slot, so a zeroed slab is
// an empty table).
type cellSlot struct {
	word uint64
	pos1 uint32
}

// tableSize is the slot count for n keys: a power of two at most half full.
func tableSize(n int) int {
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

// findSlot probes t for w.
func findSlot(t []cellSlot, w uint64) (int, bool) {
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

// putSlot stores w at pos and reports whether w was already present (its
// position is overwritten). t must have a free slot.
func putSlot(t []cellSlot, w uint64, pos int) bool {
	mask := len(t) - 1
	for i := slotOf(w, mask); ; i = (i + 1) & mask {
		s := &t[i]
		if s.pos1 == 0 || s.word == w {
			dup := s.pos1 != 0
			*s = cellSlot{word: w, pos1: uint32(pos) + 1}
			return dup
		}
	}
}

// rehash copies t's keys into a fresh table with room for n keys.
func rehash(t []cellSlot, n int) []cellSlot {
	out := make([]cellSlot, tableSize(n))
	for _, s := range t {
		if s.pos1 != 0 {
			putSlot(out, s.word, int(s.pos1-1))
		}
	}
	return out
}

// xlatCache remembers, per probe dictionary, the ordinal of each of its
// strings in a domain, so a dictionary-coded key column costs one array read
// per probe. An entry is valid while the domain keeps its size: a domain
// only grows, and only a new value can turn a miss into a hit.
type xlatCache struct {
	ents [4]xlatEntry
	next int
}

type xlatEntry struct {
	dom  *domain
	size uint32
	dict []string
	xl   []uint32
}

func sameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (c *xlatCache) get(d *domain, dict []string) []uint32 {
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
			o = noOrd
		}
		xl = append(xl, o)
	}
	*e = xlatEntry{dom: d, size: d.size, dict: dict, xl: xl}
	return xl
}

// colOrds writes the ordinal in d of key column c's row rows[k] to out[k],
// noOrd when the value is in no domain: dictionary columns by code (through
// xc), INT columns by arithmetic, anything else through the value map.
func (d *domain) colOrds(c *colstore.Column, rows []int32, out []uint32, xc *xlatCache) {
	null := noOrd
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
// value has one, noOrd otherwise.
func pick(o uint32, ok, isNull bool, null uint32) uint32 {
	switch {
	case isNull:
		return null
	case ok:
		return o
	}
	return noOrd
}

// cellKeys is a bucket's DBY key space: the domains and the layout its
// frames' cell words use — shared with the structure's other buckets and
// with its clones until the bucket must add to them — and the bucket's
// probe scratch, which needs no lock because one PE evaluates a bucket at a
// time.
type cellKeys struct {
	npby int
	doms []*domain
	lay  *keyLayout
	// owned[d] marks doms[d] as this bucket's own copy, layOwned lay.
	owned    []bool
	layOwned bool

	tuple []uint32
	ords  [][]uint32 // LookupBatch's per-dimension ordinals
	buf   []byte
	xlat  xlatCache
}

func newCellKeys(m *Model, bk *buildKeys) *cellKeys {
	k := &cellKeys{npby: m.NPby, lay: bk.dbyLay}
	for _, rd := range bk.dby {
		k.doms = append(k.doms, rd.dom)
	}
	k.owned = make([]bool, len(k.doms))
	k.tuple = make([]uint32, len(k.doms))
	k.ords = make([][]uint32, len(k.doms))
	return k
}

// share returns the key space for a clone's bucket: the same domains and
// layout, owned by neither side from then on, and scratch of its own. k is
// only written when it owned something, which a pristine structure never
// does.
func (k *cellKeys) share() *cellKeys {
	if k.layOwned {
		k.layOwned = false
	}
	for d, own := range k.owned {
		if own {
			k.owned[d] = false
		}
	}
	return &cellKeys{npby: k.npby, doms: k.doms[:len(k.doms):len(k.doms)], lay: k.lay,
		owned: make([]bool, len(k.doms)), tuple: make([]uint32, len(k.doms)), ords: make([][]uint32, len(k.doms))}
}

// word returns the cell word of DBY values, ok=false when some value is in
// no domain (then no cell has it).
func (k *cellKeys) word(dims []types.Value) (uint64, bool) {
	for d, v := range dims {
		o, ok := k.doms[d].ord(v)
		if !ok {
			return 0, false
		}
		k.tuple[d] = o
	}
	return k.lay.word(k.tuple, &k.buf)
}

// colOrds turns key columns at rows into per-dimension ordinals, in k's
// scratch until the next call.
func (k *cellKeys) colOrds(cols []*colstore.Column, rows []int32) [][]uint32 {
	for d, c := range cols {
		if cap(k.ords[d]) < len(rows) {
			k.ords[d] = make([]uint32, 0, max(len(rows), 2*cap(k.ords[d])))
		}
		k.ords[d] = k.ords[d][:len(rows)]
		k.doms[d].colOrds(c, rows, k.ords[d], &k.xlat)
	}
	return k.ords
}

// wordAt is the word of key i of colOrds' result.
func (k *cellKeys) wordAt(ords [][]uint32, i int) (uint64, bool) {
	for d := range k.tuple {
		o := ords[d][i]
		if o == noOrd {
			return 0, false
		}
		k.tuple[d] = o
	}
	return k.lay.word(k.tuple, &k.buf)
}

// wordGrow returns the cell word of DBY values, numbering the values its
// domains lack (on the bucket's own copy). A value that outgrows its field
// re-lays every word of the bucket first.
func (b *bucket) wordGrow(dims []types.Value) uint64 {
	k := b.keys
	relay := false
	for d, v := range dims {
		o, ok := k.doms[d].ord(v)
		if !ok {
			if !k.owned[d] {
				k.doms[d], k.owned[d] = k.doms[d].clone(), true
			}
			o = k.doms[d].grow(v)
			relay = relay || !k.lay.fits(d, o)
		}
		k.tuple[d] = o
	}
	if relay {
		b.relayout()
	}
	if w, ok := k.lay.word(k.tuple, &k.buf); ok {
		return w
	}
	// A tuple new to a byte-keyed layout.
	if !k.layOwned {
		k.lay, k.layOwned = k.lay.clone(), true
	}
	return k.lay.add(k.tuple, &k.buf)
}

// relayout widens the fields whose domains outgrew them — to byte keys if
// the widths pass 64 bits — and rebuilds every frame's cell table of b from
// its rows. It is the rare cost of an UPSERT whose new values outnumber the
// build's headroom.
func (b *bucket) relayout() {
	k := b.keys
	width := append([]uint8(nil), k.lay.width...)
	for d, dom := range k.doms {
		if dom.size > 0 && !k.lay.fits(d, dom.size-1) {
			width[d] = fieldWidth(dom.size)
		}
	}
	tuple := append([]uint32(nil), k.tuple...)
	k.lay, k.layOwned = newLayout(width), true
	for _, f := range b.frames {
		t := make([]cellSlot, tableSize(f.Len()+1))
		for pos := range f.ids {
			row := f.Row(pos)
			for d, dom := range k.doms {
				k.tuple[d], _ = dom.ord(row[k.npby+d])
			}
			putSlot(t, k.lay.add(k.tuple, &k.buf), pos)
		}
		f.cells, f.cellsShared = t, false
	}
	copy(k.tuple, tuple)
}
