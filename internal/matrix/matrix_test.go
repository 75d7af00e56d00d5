package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"systolicdp/internal/semiring"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3, 7)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 7 {
				t.Errorf("At(%d,%d) = %v, want 7", i, j, m.At(i, j))
			}
		}
	}
	m.Set(1, 2, -1)
	if m.At(1, 2) != -1 {
		t.Error("Set/At roundtrip failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2, 0)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestNegativeDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dims")
		}
	}()
	New(-1, 2, 0)
}

func TestFromRowsAndRowCol(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.Row(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
	if got := m.Col(2); got[0] != 3 || got[1] != 6 {
		t.Errorf("Col(2) = %v", got)
	}
	// Mutating returned slices must not alias the matrix.
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) == 99 {
		t.Error("Row must return a copy")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("empty FromRows = %dx%d", m.Rows, m.Cols)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Error("Clone must not share storage")
	}
}

func TestEqual(t *testing.T) {
	s := semiring.MinPlus{}
	a := Zeros(s, 2, 2)
	b := Zeros(s, 2, 2)
	if !a.Equal(b, 0) {
		t.Error("matrices of +inf must compare equal")
	}
	b.Set(0, 0, 1)
	if a.Equal(b, 0) {
		t.Error("different matrices compared equal")
	}
	if a.Equal(New(2, 3, 0), 0) {
		t.Error("different shapes compared equal")
	}
}

func TestIdentityMinPlus(t *testing.T) {
	s := semiring.MinPlus{}
	id := Identity(s, 3)
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if got := MulMat(s, id, m); !got.Equal(m, 0) {
		t.Errorf("I.M != M:\n%v", got)
	}
	if got := MulMat(s, m, id); !got.Equal(m, 0) {
		t.Errorf("M.I != M:\n%v", got)
	}
}

func TestMulVecEquation8a(t *testing.T) {
	// The 3x3 example of equation (8a): f(C) = C . D over (MIN,+).
	s := semiring.MinPlus{}
	c := FromRows([][]float64{
		{5, 2, 7},
		{1, 9, 3},
		{4, 4, 4},
	})
	d := []float64{1, 4, 0}
	got := MulVec(s, c, d)
	want := []float64{
		math.Min(5+1, math.Min(2+4, 7+0)), // 6
		math.Min(1+1, math.Min(9+4, 3+0)), // 2
		math.Min(4+1, math.Min(4+4, 4+0)), // 4
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("f(C%d) = %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestMulMatPlusTimesMatchesClassic(t *testing.T) {
	s := semiring.PlusTimes{}
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MulMat(s, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Errorf("got\n%v want\n%v", got, want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	s := semiring.MinPlus{}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MulMat(s, New(2, 3, 0), New(2, 3, 0))
}

func TestChainVecMatchesChainMat(t *testing.T) {
	s := semiring.MinPlus{}
	rng := rand.New(rand.NewSource(1))
	ms := []*Matrix{
		Random(rng, 4, 4, 0, 10),
		Random(rng, 4, 4, 0, 10),
		Random(rng, 4, 4, 0, 10),
	}
	v := []float64{1, 2, 3, 4}
	vm := New(4, 1, 0)
	for i, x := range v {
		vm.Set(i, 0, x)
	}
	got := ChainVec(s, ms, v)
	want := MulMat(s, ChainMat(s, ms), vm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-9 {
			t.Errorf("ChainVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestChainVecOpsSerialIterationCount(t *testing.T) {
	// For an (N+1)-stage single-source single-sink graph the paper counts
	// (N-2)m^2 + m serial iterations: a 1xm first matrix, N-2 full mxm
	// matrices, and a final mx1 column vector absorbed as input vector v.
	s := semiring.MinPlus{}
	m := 5
	bigN := 7 // number of matrices (stages N+1 = bigN+1 with the vector)
	rng := rand.New(rand.NewSource(2))
	ms := make([]*Matrix, 0, bigN)
	ms = append(ms, Random(rng, 1, m, 0, 10)) // row vector A
	for i := 0; i < bigN-1; i++ {
		ms = append(ms, Random(rng, m, m, 0, 10))
	}
	v := make([]float64, m)
	_, ops := ChainVecOps(s, ms, v)
	want := (bigN-1)*m*m + m
	if ops != want {
		t.Errorf("ops = %d, want %d", ops, want)
	}
}

func TestChainMatTreeEqualsChainMat(t *testing.T) {
	s := semiring.MinPlus{}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		ms := make([]*Matrix, n)
		for i := range ms {
			ms[i] = Random(rng, 3, 3, 0, 100)
		}
		serial := ChainMat(s, ms)
		tree := ChainMatTree(s, ms)
		if !serial.Equal(tree, 1e-9) {
			t.Errorf("n=%d: tree product differs from serial product", n)
		}
	}
}

func TestChainEmptyPanics(t *testing.T) {
	s := semiring.MinPlus{}
	for _, f := range []func(){
		func() { ChainMat(s, nil) },
		func() { ChainMatTree(s, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty chain")
				}
			}()
			f()
		}()
	}
}

func TestPropertyMinPlusAssociativity(t *testing.T) {
	// (A.B).C == A.(B.C) over (MIN,+) — the algebraic fact that licenses
	// the paper's divide-and-conquer reordering (equation (15)).
	s := semiring.MinPlus{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 3, 4, 0, 50)
		b := Random(rng, 4, 2, 0, 50)
		c := Random(rng, 2, 5, 0, 50)
		l := MulMat(s, MulMat(s, a, b), c)
		r := MulMat(s, a, MulMat(s, b, c))
		return l.Equal(r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArgMulVecTracksMinimizer(t *testing.T) {
	s := semiring.MinPlus{}
	a := FromRows([][]float64{
		{5, 2, 7},
		{1, 9, 3},
	})
	v := []float64{1, 3, 0} // row 0 products: 6, 5, 7
	out, args := ArgMulVec(s, a, v)
	if out[0] != 5 || args[0] != 1 {
		t.Errorf("row 0: got (%v,%d), want (5,1)", out[0], args[0])
	}
	if out[1] != 2 || args[1] != 0 {
		t.Errorf("row 1: got (%v,%d), want (2,0)", out[1], args[1])
	}
}

func TestRandomInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Random(rng, 10, 10, 2, 3)
	for _, v := range m.Data {
		if v < 2 || v >= 3 {
			t.Fatalf("Random value %v outside [2,3)", v)
		}
	}
}

func TestStringRenders(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if m.String() == "" {
		t.Error("String() empty")
	}
}

func TestTropicalFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		r, k, c := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Random(rng, r, k, 0, 50)
		b := Random(rng, k, c, 0, 50)
		// Sprinkle semiring zeros (missing edges).
		if k > 1 {
			a.Set(0, k-1, math.Inf(1))
		}
		for _, s := range []semiring.Semiring{semiring.MinPlus{}, semiring.MaxPlus{}} {
			if s.Name() == "max-plus" {
				// For max-plus the absent edge is -inf.
				if k > 1 {
					a.Set(0, k-1, math.Inf(-1))
				}
			}
			fast := MulMat(s, a, b)
			slow := MulMatGeneric(s, a, b)
			if !fast.Equal(slow, 1e-9) {
				t.Fatalf("trial %d %s: fast path differs from generic", trial, s.Name())
			}
		}
	}
}

func TestTropicalFastPathDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MulMat(semiring.MinPlus{}, New(2, 3, 0), New(2, 2, 0))
}

func BenchmarkChainVec32(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	ms := make([]*Matrix, 5)
	for i := range ms {
		ms[i] = Random(rng, 32, 32, -5, 5)
	}
	v := make([]float64, 32)
	for i := range v {
		v[i] = rng.Float64()*10 - 5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChainVec(semiring.MinPlus{}, ms, v)
	}
}
