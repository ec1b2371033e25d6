package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/assign"
)

// TestPlanResponseEncoding pins the hand-written /v1/plan encoder to the
// reflection one it replaced: for real A2A and X2Y plans, with and without
// the fleet-hit flag, writePlan must send exactly the headers and bytes
// writeJSON (json.Encoder, trailing newline included) sends.
func TestPlanResponseEncoding(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	bodies := []planRequest{
		{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}},
		{Problem: "A2A", Capacity: 256, Sizes: []assign.Size{1, 100, 37, 64, 64, 9, 120, 3, 130, 17, 88, 5, 41, 77}},
		{Problem: "a2a", Capacity: 7, Sizes: []assign.Size{7}},
		{Problem: "X2Y", Capacity: 10, XSizes: []assign.Size{7, 2, 1}, YSizes: []assign.Size{1, 2, 1, 1}},
		{Problem: "X2Y", Capacity: 64, XSizes: []assign.Size{30, 5, 12, 9, 1, 22}, YSizes: []assign.Size{3, 30, 8}},
	}
	for _, body := range bodies {
		resp, aerr := s.runPlan(context.Background(), body, time.Second)
		if aerr != nil {
			t.Fatalf("runPlan(%+v): %v", body, aerr)
		}
		for _, fleetHit := range []bool{false, true} {
			resp.FleetCacheHit = fleetHit
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, resp)
			got := httptest.NewRecorder()
			writePlan(got, resp)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%+v fleet_cache_hit=%v:\n got %s\nwant %s", body, fleetHit, got.Body.Bytes(), want.Body.Bytes())
			}
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("status/content type %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"),
					want.Code, want.Header().Get("Content-Type"))
			}
			if enc, _ := json.Marshal(resp); !bytes.Equal(resp.appendJSON(nil), enc) {
				t.Fatalf("appendJSON differs from json.Marshal:\n got %s\nwant %s", resp.appendJSON(nil), enc)
			}
		}
	}
	// A response without a schema encodes it as null, as json.Marshal does.
	empty := &planResponse{Winner: "<none>", ReplicationRate: 1e-7}
	if enc, _ := json.Marshal(empty); !bytes.Equal(empty.appendJSON(nil), enc) {
		t.Fatalf("appendJSON = %s, want %s", empty.appendJSON(nil), enc)
	}
}
