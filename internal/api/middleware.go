package api

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the per-request correlation ID; clients may
// supply their own, otherwise the server mints one.
const requestIDHeader = "X-Request-Id"

// statusWriter records the status and byte count a handler produced, and
// whether the header has been committed (so the panic recoverer knows if a
// clean 500 is still possible).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush passes through so streaming handlers keep working behind the
// middleware chain.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// extended controls (the SSE handler clears the server write deadline).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withMiddleware wraps h in the full chain. Order, outermost first:
// request ID → structured logging → panic recovery → rate limiting. The
// recoverer sits inside logging so a panic is logged as the 500 it became,
// and outside rate limiting so even a panicking limiter cannot kill the
// process.
func (s *Server) withMiddleware(h http.Handler) http.Handler {
	h = s.rateLimitMiddleware(h)
	h = s.recoverMiddleware(h)
	h = s.logMiddleware(h)
	return requestIDMiddleware(h)
}

// requestIDMiddleware ensures every request has a correlation ID, echoed
// in the response headers and available to the log line.
func requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSpace(r.Header.Get(requestIDHeader))
		if id == "" || len(id) > 64 {
			id = newRequestID()
			r.Header.Set(requestIDHeader, id)
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// Minted request IDs are a random per-process prefix and a counter: unique
// within the process, distinguishable across restarts, and free of a
// system call per request.
var (
	requestIDPrefix = func() uint32 {
		var b [4]byte
		rand.Read(b[:]) // never fails: crypto/rand.Read crashes the program instead
		return binary.BigEndian.Uint32(b[:])
	}()
	requestIDSeq atomic.Uint32
)

// newRequestID mints a 16-hex-digit ID: the process prefix, then the
// request count.
func newRequestID() string {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], requestIDPrefix)
	binary.BigEndian.PutUint32(b[4:], requestIDSeq.Add(1))
	return hex.EncodeToString(b[:])
}

// logMiddleware emits one structured key=value line per request when the
// server was built with WithLogger; with no logger it adds nothing to the
// hot path beyond the status recorder.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if s.opts.logger != nil {
			s.opts.logger.Printf("method=%s path=%s status=%d bytes=%d dur=%s ip=%s req=%s",
				r.Method, r.URL.Path, sw.status, sw.bytes,
				time.Since(start).Round(time.Microsecond), clientIP(r),
				r.Header.Get(requestIDHeader))
		}
	})
}

// recoverMiddleware turns a handler panic into a clean 500 error envelope
// when the response header has not been committed yet; either way the
// stack is logged and the process survives.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil || p == http.ErrAbortHandler {
				if p != nil {
					panic(p)
				}
				return
			}
			if s.opts.logger != nil {
				s.opts.logger.Printf("panic=%v req=%s path=%s\n%s",
					p, r.Header.Get(requestIDHeader), r.URL.Path, debug.Stack())
			}
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				writeAPIError(w, errf(http.StatusInternalServerError, ErrCodeInternal,
					"internal error (request %s)", r.Header.Get(requestIDHeader)))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ------------------------------------------------------------ rate limit

// rateLimiter is a per-client token bucket: each client key (IP) gets
// burst tokens refilled at rps per second. Zero value disabled.
type rateLimiter struct {
	rps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the per-client map; when exceeded, fully refilled
// (idle) buckets are dropped, so an address-rotating client cannot grow
// server memory without bound.
const maxBuckets = 8192

func newRateLimiter(rps float64, burst int) *rateLimiter {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rps: rps, burst: float64(burst), buckets: make(map[string]*bucket)}
}

// allow consumes one token from key's bucket, reporting whether the
// request may proceed.
func (l *rateLimiter) allow(key string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.prune(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rps)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// prune drops idle buckets — those whose refill as of now would be full,
// meaning the client has not been seen for at least burst/rps seconds.
// Stored token counts are stale (refill happens lazily in allow), so the
// refill must be recomputed here, not read. Callers hold mu.
func (l *rateLimiter) prune(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rps >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// retryAfter is the Retry-After hint: how long until one token refills.
func (l *rateLimiter) retryAfter() int {
	secs := int(1 / l.rps)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) rateLimitMiddleware(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.limiter.allow(clientIP(r), time.Now()) {
			w.Header().Set("Retry-After", strconv.Itoa(s.limiter.retryAfter()))
			writeAPIError(w, errf(http.StatusTooManyRequests, ErrCodeRateLimited,
				"rate limit exceeded; retry after %ds", s.limiter.retryAfter()))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientIP extracts the bucket key for rate limiting: the peer IP without
// the ephemeral port.
func clientIP(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
