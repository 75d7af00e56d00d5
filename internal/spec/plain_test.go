package spec

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The plain parser converts an integer token of at most 15 digits with
// float64(n), which must give ParseFloat's bits, and reads an integer
// field's token of at most 18 digits itself; longer tokens go to strconv
// or to encoding/json.
func TestDecodeNumbersMatchStrconv(t *testing.T) {
	floats := []string{"0", "-0", "7", "-7", "999999999999999", "-999999999999999",
		"123456789012345", "1234567890123456", "-1234567890123456", "9007199254740992",
		"9007199254740993", "-9007199254740993", "12345678901234567890123", "0.5", "-0.0", "1e-7", "1E21"}
	body := `{"problem":"dtw","x":[` + strings.Join(floats, ",") + `],"y":[1]}`
	var f File
	if !f.parsePlain([]byte(body)) {
		t.Fatalf("plain parser rejected %s", body)
	}
	for i, tok := range floats {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(f.X[i]) != math.Float64bits(want) {
			t.Errorf("%s: decoded %v (%#x), ParseFloat %v (%#x)", tok, f.X[i], math.Float64bits(f.X[i]), want, math.Float64bits(want))
		}
	}

	ints := []string{"-0", "1", "123456789012345678", "-123456789012345678"}
	body = `{"problem":"chain","dims":[` + strings.Join(ints, ",") + `]}`
	f = File{}
	if !f.parsePlain([]byte(body)) {
		t.Fatalf("plain parser rejected %s", body)
	}
	for i, tok := range ints {
		if want, _ := strconv.ParseInt(tok, 10, 64); int64(f.Dims[i]) != want {
			t.Errorf("%s: decoded %d, ParseInt %d", tok, f.Dims[i], want)
		}
	}
	// A 19-digit integer, in or out of int64's range, is encoding/json's.
	for _, tok := range []string{"1234567890123456789", "9999999999999999999"} {
		f = File{}
		if f.parsePlain([]byte(`{"problem":"chain","dims":[` + tok + `]}`)) {
			t.Errorf("plain parser took the 19-digit integer %s", tok)
		}
	}
}

// A flat array is allocated at its count of commas capped at the field's
// Validate limit. Past the cap the body goes to encoding/json, which
// rejects a run of commas before allocating and lets Validate name an
// over-long field; uncapped, the commas would cost 8 bytes each.
func TestDecodePresizeIsCapped(t *testing.T) {
	commas := []byte(`{"problem":"dtw","x":[1` + strings.Repeat(",", 2*MaxSpecSeries) + `],"y":[1]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(commas)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body of commas was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("decoding %d commas allocated %d bytes", 2*MaxSpecSeries, n)
	}

	long := []byte(`{"problem":"chain","dims":[` + strings.TrimSuffix(strings.Repeat("1,", MaxSpecChainLen+1), ",") + `]}`)
	_, err = Decode(long)
	_, want := jsonDecode(long)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("over-long dims: error %v, want %v", err, want)
	}
}

// numRows writes rows rows of cols small integers as a JSON matrix.
func numRows(rows, cols int) string {
	row := "[" + strings.TrimSuffix(strings.Repeat("7,", cols), ",") + "]"
	return "[" + strings.TrimSuffix(strings.Repeat(row+",", rows), ",") + "]"
}

// graphBody writes a Design-1 graph of inner stages of m nodes: a 1×m
// source matrix, inner−1 m×m matrices and an m×1 sink column.
func graphBody(inner, m int) string {
	mats := []string{numRows(1, m)}
	for k := 1; k < inner; k++ {
		mats = append(mats, numRows(m, m))
	}
	mats = append(mats, numRows(m, 1))
	return `{"problem":"graph","design":1,"costs":[` + strings.Join(mats, ",") + `]}`
}

// A matrix-valued field is carved out of one array of numbers and one
// of rows, so its decode takes the same few allocations at any row
// count: the File, the kind name and, per field, the numbers, the rows
// and, for costs, the matrix list (the counts below, measured with Go
// 1.24).
func TestDecodeMatrixAllocs(t *testing.T) {
	for _, c := range []struct {
		name         string
		small, large string
		want         float64
	}{
		{"graph", graphBody(2, 3), graphBody(40, 9), 5},
		{"nodevalued", `{"problem":"nodevalued","values":` + numRows(2, 3) + `}`,
			`{"problem":"nodevalued","values":` + numRows(300, 37) + `}`, 4},
		{"viterbi", `{"problem":"viterbi","values":` + numRows(2, 2) + `,"costs":[` + numRows(2, 2) + `]}`,
			`{"problem":"viterbi","values":` + numRows(21, 18) + `,"costs":[` +
				strings.TrimSuffix(strings.Repeat(numRows(18, 18)+",", 20), ",") + `]}`, 7},
		{"nonserial", `{"problem":"nonserial","domains":` + numRows(2, 2) + `,"cost":"span"}`,
			`{"problem":"nonserial","domains":` + numRows(18, 4) + `,"cost":"span"}`, 5},
	} {
		var counts []float64
		for _, s := range []string{c.small, c.large} {
			body := []byte(s)
			if _, err := Decode(body); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			counts = append(counts, testing.AllocsPerRun(50, func() { Decode(body) }))
		}
		if counts[0] != counts[1] || counts[1] > c.want {
			t.Errorf("%s: %v allocations small, %v large; want the same, at most %v", c.name, counts[0], counts[1], c.want)
		}
	}
}

// A matrix field past one chunk of maxGridPresize numbers takes a chunk
// per maxGridPresize numbers and copies none: a 4096 × 64 values field
// allocates about its own size, where growing one array by append would
// allocate several times that.
func TestDecodeLargeMatrixAllocs(t *testing.T) {
	const rows, cols = 4096, 64
	body := []byte(`{"problem":"nodevalued","values":` + numRows(rows, cols) + `}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Decode(body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Values) != rows || len(f.Values[rows-1]) != cols || f.Values[rows-1][cols-1] != 7 {
		t.Fatalf("decoded %d rows", len(f.Values))
	}
	numbers, headers := uint64(8*rows*cols), uint64(24*rows)
	if n := after.TotalAlloc - before.TotalAlloc; n > numbers+numbers/8+headers {
		t.Errorf("decoding %d bytes of numbers allocated %d bytes", numbers, n)
	}
	chunks := float64(rows * cols / maxGridPresize)
	if n := testing.AllocsPerRun(5, func() { Decode(body) }); n > chunks+4 {
		t.Errorf("%v allocations, want at most %v: one per chunk, the rows, the File and its kind", n, chunks+4)
	}
}

// Rows of every length up to MaxSpecNodes, empty rows and empty matrices
// parse across chunk boundaries to the File json.Unmarshal builds, and
// an append to any row leaves the others as they were.
func TestDecodeChunkedMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	row := func(n int) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = float64(rng.Intn(2000) - 1000)
		}
		return r
	}
	lengths := func() int {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return MaxSpecNodes
		default:
			return 1 + rng.Intn(3000)
		}
	}
	var values [][]float64
	for n := 0; n < 4*maxGridPresize; n += len(values[len(values)-1]) {
		values = append(values, row(lengths()))
	}
	var costs [][][]float64
	for n := 0; n < 3*maxGridPresize; {
		m := make([][]float64, rng.Intn(12))
		for i := range m {
			m[i] = row(lengths())
			n += len(m[i])
		}
		costs = append(costs, m)
	}
	for _, in := range []File{{Problem: "nodevalued", Values: values}, {Problem: "viterbi", Costs: costs}} {
		body, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		var got, want File
		if !got.parsePlain(body) {
			t.Fatalf("%s: not parsed as plain", in.Problem)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameFile(&got, &want) {
			t.Fatalf("%s: parsed File differs from json.Unmarshal's", in.Problem)
		}
		rows := got.Values
		for _, m := range got.Costs {
			rows = append(rows, m...)
		}
		for i := range rows {
			rows[i] = append(rows[i], -1)
		}
		for _, m := range want.Costs {
			want.Values = append(want.Values, m...)
		}
		for i, r := range want.Values {
			if !slices.Equal(rows[i][:len(r)], r) {
				t.Fatalf("%s: row %d changed after appends", in.Problem, i)
			}
		}
	}
}

// A row carved out of a grid has its length as its capacity, so an
// append to it moves it instead of writing over the next row; the same
// holds for a matrix of costs.
func TestDecodeMatrixRowsDoNotAlias(t *testing.T) {
	f, err := Decode([]byte(`{"problem":"viterbi","values":[[1,2],[3,4]],"costs":[[[5,6],[7,8]],[[9]]]}`))
	if err != nil {
		t.Fatal(err)
	}
	f.Values[0] = append(f.Values[0], -1)
	f.Costs[0][0] = append(f.Costs[0][0], -1)
	f.Costs[0] = append(f.Costs[0], []float64{-1})
	want := File{Problem: "viterbi", Values: [][]float64{{1, 2, -1}, {3, 4}},
		Costs: [][][]float64{{{5, 6, -1}, {7, 8}, {-1}}, {{9}}}}
	if !sameFile(f, &want) {
		t.Errorf("after appends: %#v", *f)
	}
}

// A matrix field's scan counts commas and brackets, which the parse may
// then reject, so what it presizes is capped: a field of commas, or of
// more empty rows than a matrix may hold, costs at most the cap before
// the parse fails.
func TestDecodeMatrixPresizeIsCapped(t *testing.T) {
	commaRow := "[1" + strings.Repeat(",", MaxSpecNodes-1) + "]"
	for name, body := range map[string]string{
		"commas": `{"problem":"nodevalued","values":[` +
			strings.TrimSuffix(strings.Repeat(commaRow+",", MaxSpecStages), ",") + `]}`,
		"empty rows": `{"problem":"graph","costs":[[` + strings.Repeat("[],", 4*MaxSpecNodes*MaxSpecNodes/16) + `x]]}`,
	} {
		data := []byte(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 2<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(body), n)
		}
	}
}

// A field appended to File must also be added to parsePlain and to the
// hash encoder. This fills every field by its type, so a field either of
// them misses fails here.
func TestWireCoversEveryField(t *testing.T) {
	var f File
	v := reflect.ValueOf(&f).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Interface().(type) {
		case string:
			fv.SetString("kind" + strconv.Itoa(i))
		case int:
			fv.SetInt(int64(i + 1))
		case float64:
			fv.SetFloat(float64(i) + 0.5)
		case []int:
			fv.Set(reflect.ValueOf([]int{i, -i}))
		case []float64:
			fv.Set(reflect.ValueOf([]float64{float64(i), -0.25}))
		case [][]float64:
			fv.Set(reflect.ValueOf([][]float64{{float64(i)}, {}}))
		case [][][]float64:
			fv.Set(reflect.ValueOf([][][]float64{{{float64(i)}, {1.5}}}))
		default:
			t.Fatalf("field %s has a type this test does not fill", v.Type().Field(i).Name)
		}
	}
	// An unknown kind keeps every field in Canonical.
	if got, err := f.Hash(); err != nil {
		t.Fatal(err)
	} else if want, _ := marshalHash(&f); got != want {
		t.Errorf("Hash %s, json.Marshal %s", got, want)
	}
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	var plain, want File
	if !plain.parsePlain(data) {
		t.Fatalf("plain parser rejected %s", data)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !sameFile(&plain, &want) {
		t.Errorf("plain parser %#v\njson.Unmarshal %#v", plain, want)
	}
}
