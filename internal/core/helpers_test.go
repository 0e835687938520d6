package core

import (
	"concilium/internal/id"
	"concilium/internal/overlay"
	"concilium/internal/tomography"
)

// overlayRoute traces a secure route for tests.
func overlayRoute(states map[id.ID]*overlay.RoutingState, src, dst id.ID) ([]id.ID, error) {
	return overlay.RouteSecure(states, src, dst, 0)
}

// probeRecord builds a record of archive a for filter tests.
func probeRecord(a *tomography.Archive, prober id.ID, up bool) tomography.ProbeRecord {
	return tomography.ProbeRecord{Prober: a.Intern(prober), Up: up}
}
