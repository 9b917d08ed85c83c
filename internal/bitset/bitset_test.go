package bitset

import (
	"math/rand"
	"testing"
)

func TestSetTestCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s := New(n)
		if got, want := len(s), Words(n); got != want {
			t.Fatalf("New(%d) has %d words, want %d", n, got, want)
		}
		if s.Count() != 0 {
			t.Fatalf("New(%d) not empty", n)
		}
		want := map[int]bool{}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for i := 0; i < n; i += 1 + rng.Intn(7) {
			s.Set(i)
			want[i] = true
		}
		for i := 0; i < n; i++ {
			if s.Test(i) != want[i] {
				t.Fatalf("n=%d: Test(%d) = %v, want %v", n, i, s.Test(i), want[i])
			}
		}
		if s.Count() != len(want) {
			t.Fatalf("n=%d: Count() = %d, want %d", n, s.Count(), len(want))
		}
	}
}

func TestTestBeyondCapacity(t *testing.T) {
	s := New(10)
	if s.Test(64) || s.Test(1<<20) {
		t.Fatal("bits beyond capacity must read as unset")
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(100)
	s.Set(37)
	s.Set(37)
	if s.Count() != 1 {
		t.Fatalf("Count() = %d after setting one bit twice", s.Count())
	}
}

// TestAndAgainstReference checks AndInto and AndCount against a per-bit
// reference on random sets, including the aliased dst form.
func TestAndAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 64, 65, 200, 513} {
		a, b := New(n), New(n)
		ra, rb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ra[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Set(i)
				rb[i] = true
			}
		}
		wantCount := 0
		for i := 0; i < n; i++ {
			if ra[i] && rb[i] {
				wantCount++
			}
		}
		if got := AndCount(a, b); got != wantCount {
			t.Fatalf("n=%d: AndCount = %d, want %d", n, got, wantCount)
		}
		dst := AndInto(New(n), a, b)
		if dst.Count() != wantCount {
			t.Fatalf("n=%d: AndInto count = %d, want %d", n, dst.Count(), wantCount)
		}
		for i := 0; i < n; i++ {
			if dst.Test(i) != (ra[i] && rb[i]) {
				t.Fatalf("n=%d: AndInto bit %d wrong", n, i)
			}
		}
		// Aliased: dst == a.
		aCopy := make(Set, len(a))
		copy(aCopy, a)
		AndInto(aCopy, aCopy, b)
		if aCopy.Count() != wantCount {
			t.Fatalf("n=%d: aliased AndInto count = %d, want %d", n, aCopy.Count(), wantCount)
		}
	}
}

// TestDiffOps checks the diffset kernels against a boolean reference
// model, including the in-place variants.
func TestDiffOps(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		rng := rand.New(rand.NewSource(int64(n) + 11))
		a, b := New(n), New(n)
		ra, rb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
				ra[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				rb[i] = true
			}
		}
		wantDiff := 0
		for i := 0; i < n; i++ {
			if ra[i] && !rb[i] {
				wantDiff++
			}
		}
		if got := AndNotCount(a, b); got != wantDiff {
			t.Fatalf("n=%d: AndNotCount = %d, want %d", n, got, wantDiff)
		}
		if got := AndNotInto(New(n), a, b).Count(); got != wantDiff {
			t.Fatalf("n=%d: AndNotInto count = %d, want %d", n, got, wantDiff)
		}
		// In-place variants against their *Into twins.
		ip := make(Set, len(a))
		copy(ip, a)
		ip.And(b)
		if want := AndInto(New(n), a, b); ip.Count() != want.Count() || AndNotCount(ip, want) != 0 {
			t.Fatalf("n=%d: in-place And differs from AndInto", n)
		}
		copy(ip, a)
		ip.AndNot(b)
		if want := AndNotInto(New(n), a, b); ip.Count() != want.Count() || AndNotCount(ip, want) != 0 {
			t.Fatalf("n=%d: in-place AndNot differs from AndNotInto", n)
		}
	}
}

// TestPoolRecycles checks that a pool hands back sets of the right length
// and recycles returned sets instead of allocating.
func TestPoolRecycles(t *testing.T) {
	p := NewPool(130)
	s1 := p.Get()
	if len(s1) != Words(130) {
		t.Fatalf("pool set has %d words, want %d", len(s1), Words(130))
	}
	s1.Set(5)
	p.Put(s1)
	s2 := p.Get()
	if &s2[0] != &s1[0] {
		t.Fatal("pool did not recycle the returned set")
	}
	if got := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); got != 0 {
		t.Fatalf("steady-state Get/Put allocates %v times per run", got)
	}
}

// TestOrShiftInto checks bit-offset concatenation against a boolean
// reference model across offsets that straddle word boundaries.
func TestOrShiftInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, off := range []int{0, 1, 63, 64, 65, 100, 128, 200} {
		for _, n := range []int{1, 64, 130, 500} {
			src := New(n)
			ref := make([]bool, off+n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					src.Set(i)
					ref[off+i] = true
				}
			}
			dst := New(off + n)
			dst.Set(0) // pre-existing bit must survive the OR
			ref[0] = true
			OrShiftInto(dst, src, off)
			for i, want := range ref {
				if dst.Test(i) != want {
					t.Fatalf("off=%d n=%d: bit %d = %v, want %v", off, n, i, dst.Test(i), want)
				}
			}
		}
	}
}
