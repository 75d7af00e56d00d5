package spec

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
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
