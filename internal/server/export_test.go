package server

// LiveCPTimers returns the number of scheduled-but-unfired timer-CP
// closures (test accessor).
func (f *Filer) LiveCPTimers() int { return f.cpLive }

// NVRAMActive returns the bytes currently logged in the filling half.
func (f *Filer) NVRAMActive() int64 { return f.active }

// Dirty returns the bytes of unstable data held in the page cache.
func (l *LinuxServer) Dirty() int64 { return l.dirty }

// Down reports whether the server is crashed.
func (srv *Server) Down() bool { return srv.down }

// HostClient is client machine 0's host name.
const HostClient = "client0"
