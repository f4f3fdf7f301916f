package traceroute

import (
	"context"
	"reflect"
	"testing"
)

// TestRunWorkerInvariance is the determinism contract for the parallel
// campaign: every counter, attribution table, and retained sample must
// be identical for any worker count at a fixed seed.
func TestRunWorkerInvariance(t *testing.T) {
	res, _ := campaign(t)
	base, _ := Run(context.Background(), res, Options{N: 6000, Seed: 11, Workers: 1})
	for _, workers := range []int{2, 5} {
		got, _ := Run(context.Background(), res, Options{N: 6000, Seed: 11, Workers: workers})
		if got.Total != base.Total {
			t.Errorf("workers=%d: Total = %d, want %d", workers, got.Total, base.Total)
		}
		if got.Unattributed != base.Unattributed {
			t.Errorf("workers=%d: Unattributed = %d, want %d", workers, got.Unattributed, base.Unattributed)
		}
		if got.AttributionChecked != base.AttributionChecked || got.AttributionCorrect != base.AttributionCorrect {
			t.Errorf("workers=%d: attribution %d/%d, want %d/%d", workers,
				got.AttributionCorrect, got.AttributionChecked,
				base.AttributionCorrect, base.AttributionChecked)
		}
		if !reflect.DeepEqual(got.ConduitProbes, base.ConduitProbes) {
			t.Errorf("workers=%d: ConduitProbes diverge", workers)
		}
		if !reflect.DeepEqual(got.ISPConduits, base.ISPConduits) {
			t.Errorf("workers=%d: ISPConduits diverge", workers)
		}
		if !reflect.DeepEqual(got.InferredTenants, base.InferredTenants) {
			t.Errorf("workers=%d: InferredTenants diverge", workers)
		}
		if !reflect.DeepEqual(got.Samples, base.Samples) {
			t.Errorf("workers=%d: retained Samples diverge", workers)
		}
	}
}
