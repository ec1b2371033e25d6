package mr

import "repro/internal/core"

// AssignmentsA2A returns, for every input ID of an A2A schema, the list of
// reducer indexes the input must be sent to, ascending. The routing step of
// a schema-driven job ships one copy of the input per assigned reducer.
func AssignmentsA2A(ms *core.MappingSchema, numInputs int) [][]int {
	out := make([][]int, numInputs)
	for r, red := range ms.Reducers {
		for _, id := range red.Inputs {
			if id >= 0 && id < numInputs {
				out[id] = append(out[id], r)
			}
		}
	}
	return out
}

// AssignmentsX2Y returns the per-input reducer assignments for an X2Y schema,
// one slice per side.
func AssignmentsX2Y(ms *core.MappingSchema, numX, numY int) (x, y [][]int) {
	x = make([][]int, numX)
	y = make([][]int, numY)
	for r, red := range ms.Reducers {
		for _, id := range red.XInputs {
			if id >= 0 && id < numX {
				x[id] = append(x[id], r)
			}
		}
		for _, id := range red.YInputs {
			if id >= 0 && id < numY {
				y[id] = append(y[id], r)
			}
		}
	}
	return x, y
}
