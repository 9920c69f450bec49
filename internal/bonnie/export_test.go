package bonnie

// Random reports whether the workload visits chunks in a seeded random
// permutation instead of front to back.
func (w Workload) Random() bool { return workloads[w].random }
