package core

import (
	"concilium/internal/id"
	"concilium/internal/tomography"
)

// probeRecord builds a record of archive a for filter tests.
func probeRecord(a *tomography.Archive, prober id.ID, up bool) tomography.ProbeRecord {
	return tomography.NewProbeRecord(0, a.Intern(prober), up)
}
