package core

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wordkey"
)

// Cell addresses as integers (package wordkey): every PBY and DBY
// dimension maps its values to ordinals of a domain, and a key packs its
// ordinals into one uint64 word. The frame finder, the per-frame cell
// tables and the reference-sheet index are open-addressed tables over that
// word. Domains are built once per structure and shared by its buckets (and
// its clones); a bucket that must add a value — an UPSERT of a value the
// build never saw — copies the domain first, so concurrent evaluations
// never write shared state. When the fields do not fit one word the
// structure keeps byte keys instead, chosen per structure at build (or per
// bucket, if an UPSERT widens a field past 64 bits).

// cellKeys is a bucket's DBY key space: the domains and the layout its
// frames' cell words use — shared with the structure's other buckets and
// with its clones until the bucket must add to them — and the bucket's
// probe scratch, which needs no lock because one PE evaluates a bucket at a
// time.
type cellKeys struct {
	npby int
	doms []*wordkey.Domain
	lay  *wordkey.Layout
	// owned[d] marks doms[d] as this bucket's own copy, layOwned lay.
	owned    []bool
	layOwned bool

	tuple []uint32
	ords  [][]uint32 // LookupBatch's per-dimension ordinals
	buf   []byte
	xlat  wordkey.XlatCache
}

func newCellKeys(m *Model, bk *buildKeys) *cellKeys {
	k := &cellKeys{npby: m.NPby, lay: bk.dbyLay}
	for _, rd := range bk.dby {
		k.doms = append(k.doms, rd.Dom)
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
		o, ok := k.doms[d].Ord(v)
		if !ok {
			return 0, false
		}
		k.tuple[d] = o
	}
	return k.lay.Word(k.tuple, &k.buf)
}

// colOrds turns key columns at rows into per-dimension ordinals, in k's
// scratch until the next call.
func (k *cellKeys) colOrds(cols []*colstore.Column, rows []int32) [][]uint32 {
	for d, c := range cols {
		if cap(k.ords[d]) < len(rows) {
			k.ords[d] = make([]uint32, 0, max(len(rows), 2*cap(k.ords[d])))
		}
		k.ords[d] = k.ords[d][:len(rows)]
		k.doms[d].ColOrds(c, rows, k.ords[d], &k.xlat)
	}
	return k.ords
}

// wordAt is the word of key i of colOrds' result.
func (k *cellKeys) wordAt(ords [][]uint32, i int) (uint64, bool) {
	for d := range k.tuple {
		o := ords[d][i]
		if o == wordkey.NoOrd {
			return 0, false
		}
		k.tuple[d] = o
	}
	return k.lay.Word(k.tuple, &k.buf)
}

// wordGrow returns the cell word of DBY values, numbering the values its
// domains lack (on the bucket's own copy). A value that outgrows its field
// re-lays every word of the bucket first.
func (b *bucket) wordGrow(dims []types.Value) uint64 {
	k := b.keys
	relay := false
	for d, v := range dims {
		o, ok := k.doms[d].Ord(v)
		if !ok {
			if !k.owned[d] {
				k.doms[d], k.owned[d] = k.doms[d].Clone(), true
			}
			o = k.doms[d].Grow(v)
			relay = relay || !k.lay.Fits(d, o)
		}
		k.tuple[d] = o
	}
	if relay {
		b.relayout()
	}
	if w, ok := k.lay.Word(k.tuple, &k.buf); ok {
		return w
	}
	// A tuple new to a byte-keyed layout.
	if !k.layOwned {
		k.lay, k.layOwned = k.lay.Clone(), true
	}
	return k.lay.Add(k.tuple, &k.buf)
}

// relayout widens the fields whose domains outgrew them — to byte keys if
// the widths pass 64 bits — and rebuilds every frame's cell table of b from
// its rows. It is the rare cost of an UPSERT whose new values outnumber the
// build's headroom.
func (b *bucket) relayout() {
	k := b.keys
	width := append([]uint8(nil), k.lay.Width...)
	for d, dom := range k.doms {
		if dom.Size() > 0 && !k.lay.Fits(d, dom.Size()-1) {
			width[d] = wordkey.FieldWidth(dom.Size())
		}
	}
	tuple := append([]uint32(nil), k.tuple...)
	k.lay, k.layOwned = wordkey.NewLayout(width), true
	for _, f := range b.frames {
		t := make([]wordkey.Slot, wordkey.TableSize(f.Len()+1))
		for pos := range f.Len() {
			for d, dom := range k.doms {
				k.tuple[d], _ = dom.Ord(f.value(pos, k.npby+d))
			}
			wordkey.Put(t, k.lay.Add(k.tuple, &k.buf), pos)
		}
		f.cells, f.cellsShared = t, false
	}
	copy(k.tuple, tuple)
}
