package eval

import (
	"math"
	"math/rand"
	"testing"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/types"
)

// fuzzKernelRows builds a small table over (a INT, b FLOAT, c TEXT, d INT)
// whose shape is steered by mask bits: NULL density, an all-NULL column,
// NaN/Inf floats, int64 extremes, and mixed-kind (boxed) columns. The
// resulting column representations cover every storage class the kernel's
// gather path distinguishes.
func fuzzKernelRows(rng *rand.Rand, mask uint8) []types.Row {
	n := 1 + rng.Intn(40)
	if mask&0x20 != 0 {
		n = 0 // empty relation: zero-length vectors, no chunks
	}
	rows := make([]types.Row, n)
	for i := range rows {
		a := types.NewInt(int64(rng.Intn(20) - 10))
		if mask&0x08 != 0 && i%3 == 0 {
			a = types.NewInt(math.MaxInt64 - int64(rng.Intn(2)))
		}
		if mask&0x01 != 0 && rng.Intn(4) == 0 {
			a = types.Null
		}
		b := types.NewFloat(float64(rng.Intn(41)-20) / 4)
		if mask&0x04 != 0 {
			switch rng.Intn(5) {
			case 0:
				b = types.NewFloat(math.NaN())
			case 1:
				b = types.NewFloat(math.Inf(1))
			case 2:
				b = types.NewFloat(math.Inf(-1))
			}
		}
		if mask&0x02 != 0 {
			b = types.Null // all-NULL column: bitmap-only representation
		}
		strs := []string{"dvd", "west", "", "d_d", "100% sure"}
		c := types.NewString(strs[rng.Intn(len(strs))])
		if rng.Intn(6) == 0 {
			c = types.Null
		}
		d := types.NewInt(int64(rng.Intn(5) - 2))
		if mask&0x40 != 0 && rng.Intn(3) == 0 {
			d = types.NewString("boxed") // mixed-kind column: boxed storage
		}
		rows[i] = types.Row{a, b, c, d}
	}
	return rows
}

// FuzzExprKernel is the compute-kernel equivalence property as a fuzz
// target: whenever CompileExprKernel accepts a parsed expression and the
// columnar image supports it, running the kernel over the image must match
// the compiled row closure row for row — identical value bits (kind, int,
// float bit pattern, string) and, on failure, the identical error text the
// row scan would have raised. Parse failures and kernel fallbacks are not
// findings; silent divergence is.
func FuzzExprKernel(f *testing.F) {
	seeds := []struct {
		src  string
		seed int64
		mask uint8
	}{
		{"a + b * 2.5", 1, 0x00},
		{"a / (a - a)", 2, 0x01}, // division by zero on every row
		{"c || '-' || c", 3, 0x00},
		{"b - a / 2.0", 4, 0x04}, // NaN/Inf operands
		{"a + a", 5, 0x08},       // int64 wraparound at MaxInt64
		{"b * b", 6, 0x02},       // all-NULL column
		{"a * d + 1", 7, 0x40},   // mixed-kind (boxed) column
		{"-b + a", 8, 0x05},
		{"a - 7", 9, 0x20}, // empty relation
	}
	for _, s := range seeds {
		f.Add(s.src, s.seed, s.mask)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, mask uint8) {
		if len(src) > 200 {
			return
		}
		e, err := parser.ParseExpr(src)
		if err != nil {
			return
		}
		bs := NewBoundSchema([]BoundCol{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
		k := CompileExprKernel(bs, e)
		if !k.Valid() {
			return // expression shape has no kernel: fallback, not a finding
		}
		rows := fuzzKernelRows(rand.New(rand.NewSource(seed)), mask)
		tbl := colstore.FromRows(4, rows)
		if tbl == nil {
			t.Fatal("FromRows rejected rectangular rows")
		}
		if _, ok := k.OutKind(tbl, nil); !ok || k.MinCols() > len(tbl.Cols) {
			return // image representation unsupported: production would fall back
		}
		ce := Compile(bs, e)
		// Full selection plus a pseudo-random subset: the subset exercises
		// selective gather while keeping the closure comparison aligned.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		sels := [][]int32{nil, nil}
		for i := range rows {
			sels[0] = append(sels[0], int32(i))
			if rng.Intn(3) != 0 {
				sels[1] = append(sels[1], int32(i))
			}
		}
		for _, sel := range sels {
			vec, kerr := k.Run(tbl, nil, nil, sel)
			// Row closure over the same selection, stopping at the first
			// error exactly like the row scan does.
			var ferr error
			want := make([]types.Value, 0, len(sel))
			for _, ri := range sel {
				ctx := &Context{Binding: &Binding{BS: bs, Row: rows[ri]}, Nav: types.KeepNav}
				v, verr := ce.Eval(ctx)
				if verr != nil {
					ferr = verr
					break
				}
				want = append(want, v)
			}
			if (kerr != nil) != (ferr != nil) {
				t.Fatalf("%q: kernel err=%v closure err=%v", src, kerr, ferr)
			}
			if kerr != nil {
				if kerr.Error() != ferr.Error() {
					t.Fatalf("%q: kernel error %q, closure error %q", src, kerr, ferr)
				}
				continue
			}
			if vec.Len() != len(sel) {
				t.Fatalf("%q: kernel returned %d values for %d selected rows", src, vec.Len(), len(sel))
			}
			for i, w := range want {
				g := vec.BoxValue(i)
				if g.K != w.K || g.I != w.I || g.S != w.S ||
					math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%q sel row %d: kernel=%#v closure=%#v", src, i, g, w)
				}
			}
		}
	})
}
