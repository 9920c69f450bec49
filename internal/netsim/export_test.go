package netsim

// Down reports whether a host's link is administratively down.
func (n *Network) Down(name string) bool { return n.mustHost(name).down }

// Bandwidth100Mbit is a 100base-T link's bandwidth in bytes per second.
const Bandwidth100Mbit = 12_500_000
