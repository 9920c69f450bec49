package disksim

import "repro/internal/sim"

// Name returns the disk's diagnostic name.
func (d *Disk) Name() string { return d.name }

// Bandwidth returns the sequential transfer rate in bytes/s.
func (d *Disk) Bandwidth() int64 { return d.bandwidth }

// QueueDelay returns how long a request issued now would wait before
// service begins.
func (d *Disk) QueueDelay() sim.Time {
	if d.freeAt > d.s.Now() {
		return d.freeAt - d.s.Now()
	}
	return 0
}

// DataDisks returns the number of data spindles.
func (r *RAID4) DataDisks() int { return r.dataDisks }
