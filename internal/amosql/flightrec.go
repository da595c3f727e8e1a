package amosql

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"partdiff/internal/obs"
)

// bundleExtraWait bounds how long a diagnostics bundle waits for the
// session writer gate before shipping without the gated reports. The
// bundle writer runs on its own goroutine, so waiting briefly behind a
// committing writer is fine — but a wedged session must not wedge the
// bundle that is supposed to explain it.
const bundleExtraWait = 3 * time.Second

// FlightRecorder returns the session's flight recorder (never nil; it
// stays disarmed until Arm).
func (s *Session) FlightRecorder() *obs.Recorder { return s.obs.Flight }

// SetFlightRecorder arms the always-on flight recorder and directs its
// diagnostics bundles to dir. An empty dir arms capture without disk
// bundles (triggers are still counted) — the A/B overhead mode the
// bench harness uses.
func (s *Session) SetFlightRecorder(dir string) {
	s.obs.Flight.SetDir(dir)
	s.obs.Flight.Arm()
}

// bundleExtras is the session's obs.BundleSource: the diagnostic
// reports that need consistent session state — the profiler report, the
// hybrid chooser journal, and the propagation network in DOT form. It
// runs on the recorder's bundle-writer goroutine, so it must acquire
// the session writer gate like any other outside caller; if the
// gate cannot be had within bundleExtraWait (a stuck writer is a likely
// reason the bundle exists at all), the bundle records why instead of
// blocking.
func (s *Session) bundleExtras(add func(name string, content []byte)) {
	ctx, cancel := context.WithTimeout(context.Background(), bundleExtraWait)
	defer cancel()
	if err := s.enterCtx(ctx); err != nil {
		add("extras-error.txt", []byte(fmt.Sprintf(
			"session reports unavailable: %v\n(the gated reports need the session writer gate; a stuck or corrupt session cannot provide them)\n", err)))
		return
	}
	var errp error
	defer s.leave(&errp)

	var prof bytes.Buffer
	if err := s.ProfileReport(&prof, 20); err == nil {
		add("profile.txt", prof.Bytes())
	}
	var hyb bytes.Buffer
	if err := s.HybridReport(&hyb); err == nil {
		add("hybrid.txt", hyb.Bytes())
	}
	if net := s.mgr.Network(); net != nil {
		add("network.dot", []byte(net.Dot()))
	}
}
