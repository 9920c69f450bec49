package server

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
)

func newTestVolume(s *sim.Sim) *disksim.RAID4 {
	return disksim.NewRAID4(s, 4, time.Millisecond, 10_000_000)
}

func newTestDisk(s *sim.Sim) *disksim.Disk {
	return disksim.New(s, time.Millisecond, 20_000_000)
}
