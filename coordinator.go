package snap

import (
	"github.com/snapml/snap/internal/controlplane"
	"github.com/snapml/snap/internal/weights"
)

// Elastic-cluster types, re-exported from the control plane. A
// Coordinator makes a TCP cluster elastic: nodes join and leave at
// runtime, and on every membership change the coordinator re-optimizes
// the mixing weight matrix W centrally (the paper's Section IV-B
// optimization assumes exactly this global view) and publishes a
// versioned Epoch that members apply at a round boundary.
type (
	// Coordinator is the elastic-cluster control-plane service.
	Coordinator = controlplane.Coordinator
	// CoordinatorConfig configures NewCoordinator.
	CoordinatorConfig = controlplane.CoordinatorConfig
	// Epoch is one versioned cluster configuration: members, topology,
	// and per-node weight rows.
	Epoch = controlplane.Epoch
	// EpochMember is one member as described by an Epoch.
	EpochMember = controlplane.EpochMember
	// BoundParams sets the step size at which the paper's simplified
	// convergence-rate bound (eq. 17) picks the best W candidate.
	BoundParams = weights.BoundParams
)

// NewCoordinator starts an elastic-cluster coordinator. Point each node's
// PeerConfig.CoordinatorAddr at its Addr().
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return controlplane.NewCoordinator(cfg)
}

// OptimizeWeightRows runs the paper's centralized weight-matrix
// optimization (Section IV-B: solve the spectral problems over the
// topology, keep the candidate with the best convergence bound, never
// worse than Metropolis) and returns one mixing row per node, for
// distribution to static multi-process clusters via PeerConfig.WRow.
// Zero-valued bound and opts select the documented defaults.
func OptimizeWeightRows(topo *Topology, bound BoundParams, opts WeightOptions) ([]Vector, error) {
	res, err := weights.OptimizeBest(topo, bound, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]Vector, topo.N())
	for i := range rows {
		rows[i] = res.W.Row(i)
	}
	return rows, nil
}
