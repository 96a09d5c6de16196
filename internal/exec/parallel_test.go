package exec

import (
	"sync"
	"testing"

	"sqlsheet/internal/types"
)

func TestMakeMorsels(t *testing.T) {
	cases := []struct {
		n, size int
		want    []morsel
	}{
		{0, 4, []morsel{}},
		{3, 4, []morsel{{0, 0, 3}}},
		{4, 4, []morsel{{0, 0, 4}}},
		{10, 4, []morsel{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}},
	}
	for _, c := range cases {
		got := makeMorsels(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("makeMorsels(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("makeMorsels(%d, %d)[%d] = %v, want %v", c.n, c.size, i, got[i], c.want[i])
			}
		}
	}
}

func TestMorselCountThreshold(t *testing.T) {
	ex := New(nil, Options{Ablate: Ablation{MorselSize: 16}})
	if got := ex.morselCount(31); got != 0 {
		t.Errorf("below threshold: morselCount(31) = %d, want 0", got)
	}
	if got := ex.morselCount(32); got != 2 {
		t.Errorf("at threshold: morselCount(32) = %d, want 2", got)
	}
	if got := ex.morselCount(33); got != 3 {
		t.Errorf("morselCount(33) = %d, want 3", got)
	}
}

func TestBudgetTryAcquire(t *testing.T) {
	b := newBudget(3)
	if got := b.tryAcquire(2); got != 2 {
		t.Fatalf("tryAcquire(2) = %d", got)
	}
	// Only one slot left; over-asking must not block.
	if got := b.tryAcquire(5); got != 1 {
		t.Fatalf("tryAcquire(5) = %d, want 1", got)
	}
	if got := b.tryAcquire(1); got != 0 {
		t.Fatalf("drained pool granted %d", got)
	}
	b.release(3)
	if got := b.tryAcquire(4); got != 3 {
		t.Fatalf("after release: tryAcquire(4) = %d, want 3", got)
	}
	b.release(3)

	// Concurrent acquisition never over-grants.
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := b.tryAcquire(2)
			mu.Lock()
			total += got
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 3 {
		t.Fatalf("concurrent grants total %d, want 3", total)
	}
}

func TestStitchPreservesOrder(t *testing.T) {
	r := func(i int) types.Row { return types.Row{types.NewInt(int64(i))} }
	parts := [][]types.Row{{r(0), r(1)}, nil, {r(2)}, {}, {r(3)}}
	got := stitch(parts)
	if len(got) != 4 {
		t.Fatalf("stitch len = %d", len(got))
	}
	for i, row := range got {
		if row[0].I != int64(i) {
			t.Errorf("stitch[%d] = %v", i, row)
		}
	}
	if stitch([][]types.Row{nil, {}}) != nil {
		t.Error("stitch of empty parts should be nil")
	}
}
