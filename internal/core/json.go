package core

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/jsonenc"
)

// The JSON form of a mapping schema is the hand-off format between the
// planning side of this library and an external execution engine (e.g. a
// driver that configures a real Hadoop/Spark job): it lists, for every
// reducer, the IDs of the inputs that must be routed to it. MarshalJSON and
// UnmarshalJSON round-trip MappingSchema through that format.

// schemaJSON is the wire representation of MappingSchema. UnmarshalJSON
// decodes through it; AppendJSON writes the same bytes json.Marshal would
// produce from it.
type schemaJSON struct {
	Problem   string        `json:"problem"`
	Capacity  Size          `json:"capacity"`
	Algorithm string        `json:"algorithm,omitempty"`
	Reducers  []reducerJSON `json:"reducers"`
}

type reducerJSON struct {
	Inputs  []int `json:"inputs,omitempty"`
	XInputs []int `json:"x_inputs,omitempty"`
	YInputs []int `json:"y_inputs,omitempty"`
	Load    Size  `json:"load"`
}

// AppendJSON appends the schema's JSON form to b and returns the extended
// buffer. The bytes equal json.Marshal of the schemaJSON wire struct, written
// with strconv appends instead of reflection.
func (ms *MappingSchema) AppendJSON(b []byte) []byte {
	b = append(b, `{"problem":`...)
	b = jsonenc.AppendString(b, ms.Problem.String())
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(ms.Capacity), 10)
	if ms.Algorithm != "" {
		b = append(b, `,"algorithm":`...)
		b = jsonenc.AppendString(b, ms.Algorithm)
	}
	b = append(b, `,"reducers":[`...)
	for i, r := range ms.Reducers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		b = appendIDs(b, `"inputs":[`, r.Inputs)
		b = appendIDs(b, `"x_inputs":[`, r.XInputs)
		b = appendIDs(b, `"y_inputs":[`, r.YInputs)
		b = append(b, `"load":`...)
		b = strconv.AppendInt(b, int64(r.Load), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendIDs appends one ID-list field and its trailing comma; an empty list
// is omitted, as omitempty does.
func appendIDs(b []byte, field string, ids []int) []byte {
	if len(ids) == 0 {
		return b
	}
	b = append(b, field...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "],"...)
}

// MarshalJSON implements json.Marshaler.
func (ms *MappingSchema) MarshalJSON() ([]byte, error) { return ms.AppendJSON(nil), nil }

// UnmarshalJSON implements json.Unmarshaler.
func (ms *MappingSchema) UnmarshalJSON(data []byte) error {
	var in schemaJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decoding mapping schema: %w", err)
	}
	switch in.Problem {
	case "A2A":
		ms.Problem = ProblemA2A
	case "X2Y":
		ms.Problem = ProblemX2Y
	default:
		return fmt.Errorf("core: unknown problem %q in mapping schema JSON", in.Problem)
	}
	ms.Capacity = in.Capacity
	ms.Algorithm = in.Algorithm
	ms.Reducers = make([]Reducer, len(in.Reducers))
	for i, r := range in.Reducers {
		ms.Reducers[i] = Reducer{Inputs: r.Inputs, XInputs: r.XInputs, YInputs: r.YInputs, Load: r.Load}
	}
	return nil
}
