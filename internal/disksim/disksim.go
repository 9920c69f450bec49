// Package disksim models the rotating storage behind the paper's three
// data sinks: the client's IBM Deskstar EIDE drive (interface-capped at
// multiword DMA mode 2, §3.1), the Linux server's single Seagate SCSI
// drive, and the filer's RAID-4 volume of eight data spindles that WAFL
// writes to in full sequential stripes.
//
// The model is deliberately simple — positioning cost plus media transfer
// at a sequential rate, FIFO-serialized per device — because the paper's
// benchmark is constructed to "minimize disk latency (i.e., seek time) on
// the server" (§2.3); the disk only matters as the eventual drain rate
// once caches fill (Figures 1 and 7's right-hand side).
package disksim

import "repro/internal/sim"

// Disk is a FIFO-served storage device.
type Disk struct {
	s *sim.Sim
	// seek is the positioning cost charged when a request is not
	// sequential with the previous one.
	seek sim.Time
	// bandwidth is the sequential media/interface rate in bytes/s.
	bandwidth int64

	freeAt  sim.Time
	nextPos int64 // byte position a sequential request would start at
	// slow is a service-time multiplier on subsequent requests (0 or 1 =
	// healthy). Chaos disk_degrade events raise it mid-run to model a
	// failing or rebuilding device.
	slow float64

	// Statistics.
	BytesWritten int64
	BytesRead    int64
	Requests     int64
	Seeks        int64
	BusyTime     sim.Time
}

// New returns a disk with the given positioning cost and sequential
// bandwidth (bytes per second).
func New(s *sim.Sim, seek sim.Time, bandwidth int64) *Disk {
	if bandwidth <= 0 {
		panic("disksim: bandwidth must be positive")
	}
	// nextPos starts at -1 so the first request always positions the head.
	return &Disk{s: s, seek: seek, bandwidth: bandwidth, nextPos: -1}
}

// BookWrite books a write of n bytes at byte offset off into the FIFO
// queue, behind earlier requests, and returns how long until it
// completes; the caller waits that long in its own process model. It
// charges a positioning cost when off does not continue the previous
// request.
func (d *Disk) BookWrite(off, n int64) sim.Time {
	at := d.service(off, n)
	d.BytesWritten += n
	return at - d.s.Now()
}

// BookRead books a read as BookWrite books a write, sharing the same
// FIFO queue, head position and sequential bandwidth (the model has no
// zone or direction asymmetry): sequential reads stream at media rate,
// and any jump charges the positioning cost.
func (d *Disk) BookRead(off, n int64) sim.Time {
	at := d.service(off, n)
	d.BytesRead += n
	return at - d.s.Now()
}

// service books a request into the FIFO queue and returns its completion
// time. Callers account the bytes as read or written.
func (d *Disk) service(off, n int64) sim.Time {
	if n < 0 {
		panic("disksim: negative request size")
	}
	start := d.s.Now()
	if d.freeAt > start {
		start = d.freeAt
	}
	cost := sim.Time(n * 1e9 / d.bandwidth)
	if off != d.nextPos {
		cost += d.seek
		d.Seeks++
	}
	if d.slow > 1 {
		cost = sim.Time(float64(cost) * d.slow)
	}
	d.nextPos = off + n
	d.freeAt = start + cost
	d.Requests++
	d.BusyTime += cost
	return d.freeAt
}

// SetSlowFactor scales the service time of subsequent requests by f
// (f >= 1; 1 restores healthy service). Requests already booked keep
// their original completion times.
func (d *Disk) SetSlowFactor(f float64) {
	if f < 1 {
		panic("disksim: slow factor must be >= 1")
	}
	d.slow = f
}

// RAID4 models the filer's parity-protected volume. WAFL turns incoming
// writes into full-stripe sequential writes, so the effective bandwidth is
// the sum of the data spindles; parity is computed on the fly and written
// in parallel, so it does not reduce stripe bandwidth.
type RAID4 struct {
	*Disk
	dataDisks int
}

// NewRAID4 returns a RAID-4 group of dataDisks spindles (plus an implied
// parity disk) each with the given per-spindle seek and bandwidth.
func NewRAID4(s *sim.Sim, dataDisks int, seek sim.Time, perDisk int64) *RAID4 {
	if dataDisks < 1 {
		panic("disksim: RAID4 needs at least one data disk")
	}
	return &RAID4{
		Disk:      New(s, seek, perDisk*int64(dataDisks)),
		dataDisks: dataDisks,
	}
}

// Paper-era device presets.

// NewDeskstarEIDE returns the client's IBM Deskstar 70GXP as configured in
// §3.1: the ServerWorks south bridge limits the interface to multiword DMA
// mode 2, 16.7 MB/s, which dominates the media rate.
func NewDeskstarEIDE(s *sim.Sim) *Disk {
	return New(s, 8_500_000, 16_600_000) // 8.5 ms seek, 16.6 MB/s
}

// NewSeagateSCSI returns one of the Linux server's Seagate LVD drives:
// ~5 ms positioning, ~35 MB/s sequential.
func NewSeagateSCSI(s *sim.Sim) *Disk {
	return New(s, 5_000_000, 35_000_000)
}

// NewFilerVolume returns the F85 test volume: eight data disks in RAID 4
// written in WAFL full stripes. Per-spindle sequential rate ~23 MB/s
// sustained gives ~46 MB/s of NVRAM drain after ONTAP overheads; we use
// 6 MB/s per spindle for a conservative 48 MB/s aggregate, comfortably
// above the filer's measured 38 MB/s network ingest.
func NewFilerVolume(s *sim.Sim) *RAID4 {
	return NewRAID4(s, 8, 4_000_000, 6_000_000)
}
