package api

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOpenAPIMatchesRouteTable is the sync check: every route in the
// table must appear in the served spec, the spec must not invent routes,
// and every table entry must actually resolve on the mux — so the spec,
// the discovery document and the registered handlers cannot drift.
func TestOpenAPIMatchesRouteTable(t *testing.T) {
	srv := NewCluster(oneShard(t))

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/openapi.json", nil))
	if rec.Code != 200 {
		t.Fatalf("openapi.json status %d", rec.Code)
	}
	var spec struct {
		OpenAPI string                    `json:"openapi"`
		Info    map[string]any            `json:"info"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &spec); err != nil {
		t.Fatalf("spec does not parse: %v", err)
	}
	if !strings.HasPrefix(spec.OpenAPI, "3.") || spec.Info["version"] != "v1" {
		t.Fatalf("spec header: openapi=%q info=%v", spec.OpenAPI, spec.Info)
	}

	// Route table → spec.
	want := map[string]bool{}
	for _, rt := range srv.routes {
		key := strings.ToLower(rt.Method) + " " + specPath(rt.Pattern)
		want[key] = true
		ops, ok := spec.Paths[specPath(rt.Pattern)]
		if !ok {
			t.Errorf("route %s %s missing from spec paths", rt.Method, rt.Pattern)
			continue
		}
		op, ok := ops[strings.ToLower(rt.Method)].(map[string]any)
		if !ok {
			t.Errorf("route %s %s missing operation in spec", rt.Method, rt.Pattern)
			continue
		}
		if rt.Deprecated && op["deprecated"] != true {
			t.Errorf("route %s %s should be marked deprecated in spec", rt.Method, rt.Pattern)
		}
		if rt.Summary != op["summary"] {
			t.Errorf("route %s %s summary drifted: %q vs %q", rt.Method, rt.Pattern, rt.Summary, op["summary"])
		}
	}

	// Spec → route table (no invented operations, no ServeMux-only syntax
	// that would fail standard OpenAPI validators).
	for pattern, ops := range spec.Paths {
		if strings.Contains(pattern, "$") {
			t.Errorf("spec path %q leaks ServeMux-only syntax", pattern)
		}
		for method := range ops {
			if !want[method+" "+pattern] {
				t.Errorf("spec lists %s %s which is not in the route table", method, pattern)
			}
		}
	}

	// Route table → mux: every documented route must resolve to exactly
	// its own pattern when the wildcards are substituted.
	for _, rt := range srv.routes {
		path := strings.NewReplacer("{id}", "probe", "{name}", "probe", "{rest}", "probe", "{$}", "").Replace(rt.Pattern)
		req := httptest.NewRequest(rt.Method, path, nil)
		_, pattern := srv.mux.Handler(req)
		if pattern != rt.Method+" "+rt.Pattern {
			t.Errorf("probe %s %s resolved to %q, want %q", rt.Method, path, pattern, rt.Method+" "+rt.Pattern)
		}
	}

	// Parameter docs must survive into the spec.
	op := spec.Paths["/api/v1/bloggers/top"]["get"].(map[string]any)
	params, _ := op["parameters"].([]any)
	names := map[string]bool{}
	for _, p := range params {
		names[fmt.Sprint(p.(map[string]any)["name"])] = true
	}
	if !names["limit"] || !names["offset"] {
		t.Fatalf("bloggers/top spec parameters = %v", names)
	}
}
