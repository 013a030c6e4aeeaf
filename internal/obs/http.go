package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"vodplace/internal/prof"
)

// ServeDebug starts the live introspection endpoint on addr (e.g.
// "localhost:6060") serving:
//
//	/metrics       — the recorder's registry in Prometheus text format
//	/debug/pprof/* — live profiling via internal/prof
//
// It listens before returning, so a caller that gets a nil error can curl
// the returned address — the one bound, which differs from addr when addr
// asks for port 0 — immediately; the server then runs on a background
// goroutine until the returned shutdown function is called. r may be nil,
// in which case /metrics serves an empty exposition.
func ServeDebug(addr string, r *Recorder) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	prof.Routes(mux)
	mux.Handle("/metrics", PromHandler(func(w io.Writer) { r.Metrics().WritePrometheus(w) }))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		if err := srv.Close(); err != nil {
			return err
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}, nil
}
