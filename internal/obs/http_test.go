package obs

import (
	"net/http"
	"strings"
	"testing"
)

// TestServeDebugRoutes starts the debug endpoint on an ephemeral port and
// checks what it serves at the address it returns — the bound one, not the
// ":0" it was asked for: /metrics as Prometheus text and /debug/pprof/, and
// nothing at the retired expvar and progress routes.
func TestServeDebugRoutes(t *testing.T) {
	r := New(nil)
	r.RecordEPFPass(samplePass("epf", 1))
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("ServeDebug returned the requested address %q, not the bound one", addr)
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/metrics"); resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != promContentType {
		t.Errorf("/metrics: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d, want 200", resp.StatusCode)
	}
	for _, retired := range []string{"debug/vars", "progress"} {
		if resp := get("/" + retired); resp.StatusCode != http.StatusNotFound {
			t.Errorf("/%s: status %d, want 404", retired, resp.StatusCode)
		}
	}
}
