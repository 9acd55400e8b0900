package paxos

import (
	"repro/internal/overlog"
	"repro/internal/sim"
)

// RestartSpec returns the sim.NodeSpec for crash-restarting a plain
// Paxos replica: reinstall the protocol with post-crash role state. The
// cluster's Restart then restores the durable acceptor tables from the
// previous incarnation (modeling a synchronous write-ahead disk).
func RestartSpec(self string, members []string, cfg Config) sim.NodeSpec {
	return func(fresh *overlog.Runtime) ([]sim.Service, error) {
		return nil, InstallRestarted(fresh, self, members, cfg)
	}
}
