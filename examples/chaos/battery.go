// Package chaos holds the example chaos scenario files, and embeds the
// three that make up the nfsbench chaos experiment's battery, so the
// experiment and nfssweep -scenario run the same files.
package chaos

import _ "embed"

//go:embed crash.yaml
var crash []byte

//go:embed sharedcrash.yaml
var sharedCrash []byte

//go:embed deadserver.yaml
var deadServer []byte

// Battery is the failure battery in the order the experiment runs it:
// crash/reboot on both backends, a shared-file crash, a dead server.
var Battery = [][]byte{crash, sharedCrash, deadServer}
