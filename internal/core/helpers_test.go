package core

import (
	"concilium/internal/id"
	"concilium/internal/tomography"
)

// probeRecord builds a record of archive a for filter tests.
func probeRecord(a *tomography.Archive, prober id.ID, up bool) tomography.ProbeRecord {
	return tomography.ProbeRecord{Prober: a.Intern(prober), Up: up}
}
