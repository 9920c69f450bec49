// Command dbload exercises the write path with the database-style
// workload the paper's introduction motivates ("complex corporate
// applications such as database and mail services"): random 8 KB page
// updates inside a preallocated table file, with a group-commit fsync
// every batch. It is a thin wrapper over experiments.DB — the same
// table `nfsbench db` prints and TestDBLoadShape pins — comparing the
// stock 2.4.4 client against the patched client on both servers: the
// fixes help transactional workloads too, and a COMMIT-bound server
// makes fsync the dominant cost (§3.6).
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	fmt.Println(experiments.DB.Output(false))
}
