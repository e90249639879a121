// Package profiling wires the standard Go profilers into the CLIs: a CPU
// profile written for the whole run, a heap profile captured at shutdown,
// and an optional net/http/pprof endpoint for live inspection. Everything
// is stdlib; a zero Options starts nothing and Stop is a cheap no-op.
package profiling

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Options selects which profiling sinks to activate.
type Options struct {
	// CPUProfile is a file path to write a CPU profile covering the whole
	// run ("" disables).
	CPUProfile string
	// MemProfile is a file path to write a heap profile at Stop, after a
	// final GC ("" disables).
	MemProfile string
	// PprofAddr is a listen address ("localhost:6060") to serve the
	// net/http/pprof endpoints on ("" disables). The listener is bound
	// eagerly so a bad address fails at startup, not silently in a
	// goroutine.
	PprofAddr string
	// MutexProfile is a file path to write a mutex-contention profile at
	// Stop ("" disables). Sampling is enabled at Start via
	// runtime.SetMutexProfileFraction with fraction 1 (every contention
	// event: the sweeps' lock paths are cheap enough), so the profile
	// covers the whole run; the previous fraction is restored at Stop.
	MutexProfile string
}

// Session holds the active profiling sinks. The zero value is a stopped
// session.
type Session struct {
	cpuFile   *os.File
	memPath   string
	mutexPath string
	prevFrac  int
	ln        net.Listener
	stopped   bool
}

// Start activates the sinks selected in opts. On error everything already
// started is torn down again.
func Start(opts Options) (*Session, error) {
	s := &Session{memPath: opts.MemProfile, mutexPath: opts.MutexProfile}
	if opts.MutexProfile != "" {
		s.prevFrac = runtime.SetMutexProfileFraction(1)
	}
	if opts.CPUProfile != "" {
		f, err := os.Create(opts.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		s.cpuFile = f
	}
	if opts.PprofAddr != "" {
		ln, err := net.Listen("tcp", opts.PprofAddr)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("pprof listener: %w", err)
		}
		s.ln = ln
		go http.Serve(ln, nil) //nolint:errcheck // server dies with the process
	}
	return s, nil
}

// Addr returns the pprof server's bound address (useful with ":0"), or ""
// when no server was started.
func (s *Session) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop flushes the CPU profile, captures the heap profile and shuts the
// pprof listener down. Stop is idempotent; only the first call does work.
func (s *Session) Stop() error {
	if s == nil || s.stopped {
		return nil
	}
	s.stopped = true
	var firstErr error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("heap profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if s.mutexPath != "" {
		f, err := os.Create(s.mutexPath)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("mutex profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		runtime.SetMutexProfileFraction(s.prevFrac)
	}
	if s.ln != nil {
		if err := s.ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
