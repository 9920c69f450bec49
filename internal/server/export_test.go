package server

import "repro/internal/sim"

// setCPTiming sets the filer's consistency-point interval and pause and
// re-arms its timer chain at the new interval.
func (f *Filer) setCPTiming(interval, pause sim.Time) {
	f.cpTimer.Cancel()
	f.cpInterval, f.cpPause = interval, pause
	f.scheduleTimerCP()
}

// NVRAMActive returns the bytes currently logged in the filling half.
func (f *Filer) NVRAMActive() int64 { return f.active }

// Dirty returns the bytes of unstable data held in the page cache.
func (l *LinuxServer) Dirty() int64 { return l.dirty }

// Down reports whether the server is crashed.
func (srv *Server) Down() bool { return srv.down }

// HostClient is client machine 0's host name.
const HostClient = "client0"
