package core

import (
	"slices"
	"sort"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// The spreadsheet's output image. A run asked for one (RunOptions.Image)
// hands out, for each output row, its position in the run's input — the
// build keeps every stored row's (Frame.in); a cell a rule inserted has none
// — and each measure packed once into a typed column over the output rows.
// The caller gathers the PBY and DBY columns from its input image by those
// positions, so their dictionaries and codes are shared; the measures are
// the engine's own. A measure's column comes from the bucket image cache
// (bucket.img, laid out frame after frame in bucket order, which is output
// order) wherever the cache still holds it — no rule wrote it after it was
// imaged — and from one row-major pass over the stored rows everywhere
// else, morsel-parallel, each value written straight into its typed vector.
// Output order, and every value's bits, are PartitionSet.Rows'.

// Output is a spreadsheet run's result.
type Output struct {
	// Rows holds the result rows in output order. A run not asked for an
	// image, or evaluating a reused structure, hands out rows only; an image
	// run hands them out only where Pos and Meas cannot serve every column:
	// a rule inserted a cell (Inserted: its keys have no input position) or
	// a measure's values mix kinds (its Meas entry is nil).
	Rows []types.Row
	// Pos[i] is output row i's position in the run's input, -1 for a cell a
	// rule inserted; nil when the run handed out rows only.
	Pos []int32
	// Inserted reports that some output row is a cell a rule inserted.
	Inserted bool
	// Meas[k] is measure k's column over the output rows, nil when its
	// values mix kinds; nil as a whole when Pos is.
	Meas []*colstore.Column
}

// packMorsel is the number of output rows one packing task reads.
const packMorsel = 4096

// outPart is one bucket's share of the output: output rows [off, off+n),
// which are the bucket's rows sel[0], sel[1], ... (every row, frame after
// frame, when sel is nil). offs[i] is frame i's first bucket row.
type outPart struct {
	b    *bucket
	off  int
	n    int
	offs []int
	sel  []int32
	// from[k] is measure k's cached column, nil where the part packs it;
	// pack lists the measures the part packs.
	from []*colstore.Column
	pack []int
}

// row maps the part's k-th output row to its bucket row.
func (p *outPart) row(k int) int {
	if p.sel != nil {
		return int(p.sel[k])
	}
	return k
}

// cached returns the bucket image cache's column col when the cache covers
// every frame of the bucket as the run left it; mixed reports a cached
// column whose values mix kinds.
func (p *outPart) cached(col int) (c *colstore.Column, mixed bool) {
	b := p.b
	if b.img == nil || !slices.Equal(b.imgRun, b.frames) {
		return nil, false
	}
	if b.img[col] == mixedColumn {
		return nil, true
	}
	return b.img[col], false
}

// firstKind is the kind of the first non-NULL value of column col in the
// part's output rows, NULL when there is none.
func (p *outPart) firstKind(col int) types.Kind {
	fi := 0
	for k := range p.n {
		r := p.row(k)
		for p.offs[fi+1] <= r {
			fi++
		}
		f := p.b.frames[fi]
		if v := p.b.store.Get(f.ids[r-p.offs[fi]])[col]; v.K != types.KindNull {
			return v.K
		}
	}
	return types.KindNull
}

// packTask is one unit of the packing pass, output rows [klo, khi) of a
// part, and what it found: each packed measure's NULL rows, and whether a
// value of another kind than the column's turned up.
type packTask struct {
	p        *outPart
	klo, khi int
	nulls    [][]int32
	mixed    []bool
}

// output builds the run's Pos and Meas over the evaluated structure, in
// the order Rows hands rows out. workers bounds the packing pass.
func (ps *PartitionSet) output(updatedOnly bool, workers int) *Output {
	m := ps.model
	parts := make([]outPart, len(ps.buckets))
	n := 0
	for bi, b := range ps.buckets {
		p := &parts[bi]
		p.b, p.off = b, n
		p.offs = make([]int, len(b.frames)+1)
		for fi, f := range b.frames {
			p.offs[fi+1] = p.offs[fi] + f.Len()
		}
		p.n = p.offs[len(b.frames)]
		if updatedOnly {
			p.sel = make([]int32, 0, p.n)
			for fi, f := range b.frames {
				for pos := range f.Len() {
					if f.updated.has(pos) {
						p.sel = append(p.sel, int32(p.offs[fi]+pos))
					}
				}
			}
			p.n = len(p.sel)
		}
		p.from = make([]*colstore.Column, m.NMea)
		n += p.n
	}
	out := &Output{Pos: make([]int32, n), Meas: make([]*colstore.Column, m.NMea)}

	// Each measure's kind and, per part, its source. A measure mixes kinds
	// when a cached part says so or two parts disagree; it is all NULL when
	// no part holds a value.
	base := m.NPby + m.NDby
	kinds := make([]types.Kind, m.NMea)
	for k := range m.NMea {
		kind, mixed := types.KindNull, false
		for pi := range parts {
			p := &parts[pi]
			c, mix := p.cached(base + k)
			pk := types.KindNull
			switch {
			case mix:
				mixed = true
			case c != nil:
				p.from[k], pk = c, c.Kind
			default:
				pk = p.firstKind(base + k)
				p.pack = append(p.pack, k)
			}
			if pk != types.KindNull && kind != types.KindNull && pk != kind {
				mixed = true
			}
			if mixed {
				break
			}
			if pk != types.KindNull {
				kind = pk
			}
		}
		if !mixed {
			kinds[k], out.Meas[k] = kind, newPacked(kind, n)
		}
	}

	// The row-major pass: every output row's position, and the values of
	// the measures its part packs. A spilling store serves one reader at a
	// time, so its bucket is one task.
	var tasks []packTask
	for pi := range parts {
		p := &parts[pi]
		p.pack = slices.DeleteFunc(p.pack, func(k int) bool {
			return out.Meas[k] == nil || kinds[k] == types.KindNull
		})
		step := packMorsel
		if _, mem := p.b.store.(*blockstore.MemStore); !mem {
			step = max(p.n, 1)
		}
		for lo := 0; lo < p.n; lo += step {
			tasks = append(tasks, packTask{p: p, klo: lo, khi: min(lo+step, p.n)})
		}
	}
	runBuildTasks(workers, len(tasks), func(ti int) { tasks[ti].run(out, base, kinds) })
	for _, t := range tasks {
		for j, k := range t.p.pack {
			if t.mixed[j] {
				out.Meas[k] = nil
			}
		}
	}
	for _, t := range tasks {
		for j, k := range t.p.pack {
			if c := out.Meas[k]; c != nil {
				for _, o := range t.nulls[j] {
					setNull(c, int(o))
				}
			}
		}
	}

	// The cached parts, a column at a time.
	for pi := range parts {
		p := &parts[pi]
		for k, src := range p.from {
			switch {
			case src == nil || out.Meas[k] == nil || kinds[k] == types.KindNull:
			case len(parts) == 1 && p.sel == nil:
				out.Meas[k] = src // the whole column, as cached
			default:
				copyPart(out.Meas[k], src, p)
			}
		}
	}
	for _, c := range out.Meas {
		if c != nil && c.Kind == types.KindNull {
			for i := range n {
				setNull(c, i)
			}
		}
	}
	out.Inserted = slices.ContainsFunc(out.Pos, func(p int32) bool { return p < 0 })
	return out
}

// run packs the task's rows: positions, and values into their typed
// vectors.
func (t *packTask) run(out *Output, base int, kinds []types.Kind) {
	p := t.p
	t.nulls = make([][]int32, len(p.pack))
	t.mixed = make([]bool, len(p.pack))
	r0 := p.row(t.klo)
	fi := sort.Search(len(p.b.frames), func(i int) bool { return p.offs[i+1] > r0 })
	for k := t.klo; k < t.khi; k++ {
		r := p.row(k)
		for p.offs[fi+1] <= r {
			fi++
		}
		f := p.b.frames[fi]
		pos, o := r-p.offs[fi], p.off+k
		out.Pos[o] = -1
		if pos < f.builtLen {
			out.Pos[o] = f.in[pos]
		}
		if len(p.pack) == 0 {
			continue
		}
		row := p.b.store.Get(f.ids[pos])
		for j, mk := range p.pack {
			v := row[base+mk]
			c := out.Meas[mk]
			switch {
			case v.K == types.KindNull:
				t.nulls[j] = append(t.nulls[j], int32(o))
			case v.K != kinds[mk]:
				t.mixed[j] = true
			case v.K == types.KindFloat:
				c.Floats[o] = v.F
			case v.K == types.KindString:
				c.Strs[o] = v.S
			default: // INT, BOOL
				c.Ints[o] = v.I
			}
		}
	}
}

// newPacked allocates an n-row column of kind's typed vector, no NULLs
// yet.
func newPacked(kind types.Kind, n int) *colstore.Column {
	c := &colstore.Column{Kind: kind, N: n}
	switch kind {
	case types.KindInt, types.KindBool:
		c.Ints = make([]int64, n)
	case types.KindFloat:
		c.Floats = make([]float64, n)
	case types.KindString:
		c.Strs = make([]string, n)
	}
	return c
}

// setNull marks row i of c NULL.
func setNull(c *colstore.Column, i int) {
	if c.Nulls == nil {
		c.Nulls = colstore.NewBitmap(c.N)
	}
	c.Nulls.Set(i)
}

// copyPart copies a cached column's part rows into dst at the part's
// output offset. src is dst's kind or all NULL.
func copyPart(dst, src *colstore.Column, p *outPart) {
	if p.sel == nil && src.Kind == dst.Kind && src.Nulls == nil && src.Dict == nil {
		switch dst.Kind {
		case types.KindFloat:
			copy(dst.Floats[p.off:], src.Floats)
		case types.KindString:
			copy(dst.Strs[p.off:], src.Strs)
		default: // INT, BOOL
			copy(dst.Ints[p.off:], src.Ints)
		}
		return
	}
	for k := range p.n {
		r, o := p.row(k), p.off+k
		if src.IsNull(r) {
			setNull(dst, o)
			continue
		}
		switch dst.Kind {
		case types.KindFloat:
			dst.Floats[o] = src.Floats[r]
		case types.KindString:
			dst.Strs[o] = src.Str(r)
		default: // INT, BOOL
			dst.Ints[o] = src.Ints[r]
		}
	}
}
