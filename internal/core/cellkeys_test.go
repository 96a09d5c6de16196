package core

import (
	"math"
	"testing"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// cellFuzzValue draws one dimension value from two bytes: NULL, INTs of a
// narrow and of a wide range (three wide dimensions overflow a word), FLOATs
// integral and not, NaN, the infinities, -0.0, strings and booleans.
func cellFuzzValue(kind, b byte) types.Value {
	switch kind % 8 {
	case 0:
		return types.Null
	case 1:
		return types.NewInt(int64(b % 8))
	case 2:
		return types.NewInt(int64(b) << 16)
	case 3:
		return types.NewFloat(float64(b % 8))
	case 4:
		return types.NewFloat(float64(b%8)/4 + 0.125)
	case 5:
		return types.NewFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[b%4])
	case 6:
		return types.NewString(string(rune('a' + b%8)))
	}
	return types.NewBool(b&1 == 1)
}

// cellFuzzReader hands out the fuzz input a byte at a time (zeros past the
// end).
type cellFuzzReader struct{ data []byte }

func (r *cellFuzzReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *cellFuzzReader) dims(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = cellFuzzValue(r.next(), r.next())
	}
	return out
}

// FuzzCellIndex checks the packed cell index against a reference map keyed
// by types.AppendKey bytes: a structure built from drawn rows (typed and
// dictionary columns where the drawn values allow them, boxed rows
// elsewhere), then a drawn sequence of Insert, Lookup, WasPresent and
// LookupBatch calls on its frames — and on a clone of it, which must leave
// the original's answers alone. Every Lookup, WasPresent and LookupBatch
// answer and every position Insert returns must equal the reference's.
func FuzzCellIndex(f *testing.F) {
	m := mustModel(f, `SELECT r, a, b, c, s FROM f
		SPREADSHEET PBY(r) DBY(a, b, c) MEA(s)
		( s[1, 1, 1] = 1 )`, nil)
	f.Add([]byte{4, 2, 1, 1, 1, 2, 1, 3, 1, 6, 2, 1, 1, 1, 2, 1, 4, 1, 1, 1, 5, 9, 9, 9, 9, 9, 9, 2, 1})
	f.Add([]byte{6, 1, 2, 200, 2, 100, 2, 50, 2, 201, 2, 101, 2, 51, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 7, 5, 1, 5, 2, 0})
	f.Add([]byte{9, 3, 6, 1, 1, 3, 5, 3, 0, 0, 0, 6, 2, 1, 7, 5, 0, 4, 6, 0, 2, 1, 1, 1, 1, 1, 1, 4, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &cellFuzzReader{data: data}
		nRows := int(rd.next() % 24)
		nb := 1 + int(rd.next()%3)
		var rows []types.Row
		seen := map[string]bool{}
		for len(rows) < nRows && len(rd.data) > 0 {
			pby := types.NewString(string(rune('p' + rd.next()%3)))
			dims := rd.dims(3)
			k := types.Key(append([]types.Value{pby}, dims...)...)
			if seen[k] {
				continue
			}
			seen[k] = true
			rows = append(rows, append(types.Row{pby}, append(dims, types.NewInt(int64(len(rows))))...))
		}
		cs := &ColSource{Cols: make([]*colstore.Column, 4)}
		for ord := range cs.Cols {
			vals := make([]types.Value, len(rows))
			for i, r := range rows {
				vals[i] = r[ord]
			}
			cs.Cols[ord] = colstore.FromValues(vals, ord%2 == 0)
		}
		ps, err := BuildPartitionsOpts(m, rows, nb, nil, BuildOptions{Cols: cs})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		frames := func(ps *PartitionSet) []*Frame {
			var fs []*Frame
			for _, b := range ps.buckets {
				fs = append(fs, b.frames...)
			}
			return fs
		}
		if len(frames(ps)) == 0 {
			return
		}
		// The reference: each frame's cells by key bytes, from its rows.
		type ref struct {
			pos   map[string]int
			built int
		}
		refOf := func(ps *PartitionSet) []ref {
			var out []ref
			for _, f := range frames(ps) {
				r := ref{pos: map[string]int{}, built: f.builtLen}
				for pos := 0; pos < f.Len(); pos++ {
					r.pos[types.Key(rowAt(f, pos)[1:4]...)] = pos
				}
				out = append(out, r)
			}
			return out
		}
		check := func(f *Frame, r ref, dims []types.Value) {
			t.Helper()
			want, wok := r.pos[types.Key(dims...)]
			got, ok := f.Lookup(dims)
			if ok != wok || ok && got != want {
				t.Fatalf("Lookup(%v) = %d, %v; want %d, %v", dims, got, ok, want, wok)
			}
			if p := f.WasPresent(dims); p != (wok && want < r.built) {
				t.Fatalf("WasPresent(%v) = %v; want %v", dims, p, !p)
			}
		}
		checkBatch := func(f *Frame, r ref, keys []*colstore.Column, sel []int32) {
			t.Helper()
			out := make([]int32, len(sel))
			f.LookupBatch(keys, sel, out)
			for i, row := range sel {
				dims := []types.Value{keys[0].Value(int(row)), keys[1].Value(int(row)), keys[2].Value(int(row))}
				want, ok := r.pos[types.Key(dims...)]
				if !ok {
					want = -1
				}
				if int(out[i]) != want {
					t.Fatalf("LookupBatch key %v = %d; want %d", dims, out[i], want)
				}
			}
		}
		cur, refs := ps, refOf(ps)
		var atClone []ref // the original's cells when it was cloned
		for len(rd.data) > 0 {
			op := rd.next()
			fs := frames(cur)
			fi := int(rd.next()) % len(fs)
			f, r := fs[fi], refs[fi]
			switch op % 5 {
			case 0: // Insert a cell the frame lacks
				dims := rd.dims(3)
				if _, ok := r.pos[types.Key(dims...)]; ok {
					check(f, r, dims)
					continue
				}
				pos := f.Insert(m, dims)
				if pos != f.Len()-1 || pos != len(r.pos) {
					t.Fatalf("Insert(%v) = %d; want %d", dims, pos, len(r.pos))
				}
				r.pos[types.Key(dims...)] = pos
			case 1: // Lookup and WasPresent
				check(f, r, rd.dims(3))
			case 2: // LookupBatch over drawn key columns, dictionary or plain
				n := 1 + int(rd.next()%6)
				keys := make([]*colstore.Column, 3)
				tuples := make([][]types.Value, n)
				for i := range tuples {
					tuples[i] = rd.dims(3)
				}
				for d := range keys {
					vals := make([]types.Value, n)
					for i := range vals {
						vals[i] = tuples[i][d]
					}
					keys[d] = colstore.FromValues(vals, rd.next()&1 == 1)
				}
				if keys[0] == nil || keys[1] == nil || keys[2] == nil {
					continue
				}
				sel := make([]int32, n)
				for i := range sel {
					sel[i] = int32(n - 1 - i)
				}
				checkBatch(f, r, keys, sel)
			case 3: // LookupBatch over the build's own columns
				if len(rows) == 0 || cs.Cols[1] == nil || cs.Cols[2] == nil || cs.Cols[3] == nil {
					continue
				}
				sel := []int32{int32(int(rd.next()) % len(rows)), int32(int(rd.next()) % len(rows))}
				checkBatch(f, r, cs.Cols[1:4], sel)
			case 4: // continue on a clone; the original must keep its answers
				if cur != ps {
					continue
				}
				cp := ps.CloneForReuse()
				defer cp.Close()
				atClone = refOf(ps)
				cur, refs = cp, refOf(cp)
			}
		}
		for fi, f := range frames(ps) {
			if atClone == nil {
				break
			}
			if f.Len() != len(atClone[fi].pos) {
				t.Fatalf("the original's frame %d changed from %d to %d rows under its clone", fi, len(atClone[fi].pos), f.Len())
			}
			for pos := 0; pos < f.Len(); pos++ {
				check(f, atClone[fi], rowAt(f, pos)[1:4])
			}
		}
	})
}
