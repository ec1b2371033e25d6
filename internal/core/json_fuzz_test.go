package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"unicode/utf8"
)

// wireBytes is what MarshalJSON produced before AppendJSON: json.Marshal of
// the schemaJSON wire struct.
func wireBytes(t *testing.T, ms *MappingSchema) []byte {
	t.Helper()
	out := schemaJSON{
		Problem:   ms.Problem.String(),
		Capacity:  ms.Capacity,
		Algorithm: ms.Algorithm,
		Reducers:  make([]reducerJSON, len(ms.Reducers)),
	}
	for i, r := range ms.Reducers {
		out.Reducers[i] = reducerJSON{Inputs: r.Inputs, XInputs: r.XInputs, YInputs: r.YInputs, Load: r.Load}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fuzzSchema decodes shape into reducers: each byte's low two bits pick the
// list its value (the remaining bits, signed) goes to — Inputs, XInputs or
// YInputs — or, for 3, close the reducer with that value times capacity as
// its load.
func fuzzSchema(problem uint8, capacity int64, algorithm string, shape []byte) *MappingSchema {
	ms := &MappingSchema{Problem: Problem(problem % 3), Capacity: Size(capacity), Algorithm: algorithm}
	var r Reducer
	for _, c := range shape {
		v := int(int8(c) >> 2)
		switch c & 3 {
		case 0:
			r.Inputs = append(r.Inputs, v)
		case 1:
			r.XInputs = append(r.XInputs, v)
		case 2:
			r.YInputs = append(r.YInputs, v)
		default:
			r.Load = Size(v) * Size(capacity)
			ms.Reducers = append(ms.Reducers, r)
			r = Reducer{}
		}
	}
	return ms
}

// FuzzSchemaJSON pins the hand-written encoder to the reflection one and the
// decoder to both. A schema built from the fuzz input must encode exactly as
// json.Marshal of the wire struct and survive UnmarshalJSON unchanged; the
// shape bytes are also fed to UnmarshalJSON as a document, and anything it
// accepts must re-encode the same way and decode back to itself.
func FuzzSchemaJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, problem uint8, capacity int64, algorithm string, shape []byte) {
		ms := fuzzSchema(problem, capacity, algorithm, shape)
		checkSchemaJSON(t, ms, ms.Problem <= ProblemX2Y)

		var doc MappingSchema
		if err := doc.UnmarshalJSON(shape); err == nil {
			checkSchemaJSON(t, &doc, true)
		}
	})
}

// checkSchemaJSON asserts AppendJSON matches the wire encoding (and appends
// rather than overwrites), and, when the problem is decodable, that
// UnmarshalJSON round-trips it.
func checkSchemaJSON(t *testing.T, ms *MappingSchema, decodable bool) {
	t.Helper()
	want := wireBytes(t, ms)
	got := ms.AppendJSON([]byte("prefix"))
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
	}
	marshaled, err := json.Marshal(ms)
	if err != nil || !bytes.Equal(marshaled, want) {
		t.Fatalf("json.Marshal = %s, %v; want %s", marshaled, err, want)
	}
	var back MappingSchema
	err = back.UnmarshalJSON(want)
	if !decodable {
		if err == nil {
			t.Fatalf("UnmarshalJSON accepted problem %q", ms.Problem)
		}
		return
	}
	if err != nil {
		t.Fatalf("UnmarshalJSON(%s): %v", want, err)
	}
	// Invalid UTF-8 in the algorithm name is encoded as U+FFFD, so only a
	// valid name is expected back verbatim.
	if back.Problem != ms.Problem || back.Capacity != ms.Capacity ||
		(utf8.ValidString(ms.Algorithm) && back.Algorithm != ms.Algorithm) ||
		!slices.EqualFunc(back.Reducers, ms.Reducers, func(a, b Reducer) bool {
			return a.Load == b.Load && slices.Equal(a.Inputs, b.Inputs) &&
				slices.Equal(a.XInputs, b.XInputs) && slices.Equal(a.YInputs, b.YInputs)
		}) {
		t.Fatalf("round trip changed the schema: %+v, want %+v", back, *ms)
	}
}
