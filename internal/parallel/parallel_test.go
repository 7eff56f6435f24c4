package parallel

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// reset restores the default budget after a test that changes it.
func reset() { SetWorkers(runtime.GOMAXPROCS(0)) }

func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer reset()
	for _, workers := range []int{1, 2, 4, 7} {
		SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 3, 16, 100, 1023} {
			for _, grain := range []int{0, 1, 7, 64, 5000} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForSerialWhenOneWorker(t *testing.T) {
	defer reset()
	SetWorkers(1)
	// With one worker every chunk must run on the caller's goroutine, so an
	// unsynchronised counter is safe and ordering is the loop order.
	last := -1
	For(100, 1, func(lo, hi int) {
		if lo != last+1 {
			t.Fatalf("out-of-order chunk [%d,%d) after %d", lo, hi, last)
		}
		last = hi - 1
	})
	if last != 99 {
		t.Fatalf("last index %d, want 99", last)
	}
}

// TestForHonoursGrain pins For's chunk-size promise: no chunk is smaller
// than grain, so a range under two grains runs as one inline call.
func TestForHonoursGrain(t *testing.T) {
	defer reset()
	SetWorkers(4)
	for _, tc := range []struct {
		n, grain int
		want     [][2]int
	}{
		{11, 8, [][2]int{{0, 11}}},
		{16, 8, [][2]int{{0, 8}, {8, 16}}},
		{100, 30, [][2]int{{0, 33}, {33, 66}, {66, 100}}},
	} {
		var mu sync.Mutex
		var got [][2]int
		spawned := chunksSpawned.Value()
		For(tc.n, tc.grain, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("For(%d, %d) ran chunks %v, want %v", tc.n, tc.grain, got, tc.want)
		}
		if len(tc.want) == 1 && chunksSpawned.Value() != spawned {
			t.Errorf("For(%d, %d) spawned a goroutine for its single chunk", tc.n, tc.grain)
		}
	}
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	defer reset()
	SetWorkers(4)
	var total int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(16, 1, func(ilo, ihi int) {
				For(4, 1, func(jlo, jhi int) {
					atomic.AddInt64(&total, int64((ihi-ilo)*(jhi-jlo)))
				})
			})
		}
	})
	if total != 8*16*4 {
		t.Fatalf("nested total %d, want %d", total, 8*16*4)
	}
}

func TestSetWorkers(t *testing.T) {
	defer reset()
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS", Workers())
	}
}

func TestDo(t *testing.T) {
	defer reset()
	SetWorkers(4)
	var ran [5]int32
	Do(
		func() { atomic.AddInt32(&ran[0], 1) },
		func() { atomic.AddInt32(&ran[1], 1) },
		func() { atomic.AddInt32(&ran[2], 1) },
		func() { atomic.AddInt32(&ran[3], 1) },
		func() { atomic.AddInt32(&ran[4], 1) },
	)
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("task %d ran %d times", i, r)
		}
	}
}
