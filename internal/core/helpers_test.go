package core

import (
	"concilium/internal/id"
	"concilium/internal/tomography"
)

// handArchive is an archive tests fill by hand, and the Probers fixture
// that names its records: handle h is the h-th prober handle issued.
type handArchive struct {
	*tomography.Archive
	ids []id.ID
}

func newHandArchive(numLinks int) *handArchive {
	return &handArchive{Archive: tomography.NewArchive(numLinks)}
}

// handle returns nid's handle, issuing the next one on first sight.
func (a *handArchive) handle(nid id.ID) tomography.ProberHandle {
	if h := a.ProberHandle(nid); h != 0 {
		return h
	}
	a.ids = append(a.ids, nid)
	return tomography.ProberHandle(len(a.ids))
}

func (a *handArchive) ProberHandle(nid id.ID) tomography.ProberHandle {
	for i, x := range a.ids {
		if x == nid {
			return tomography.ProberHandle(i + 1)
		}
	}
	return 0
}

func (a *handArchive) ProberID(h tomography.ProberHandle) id.ID {
	if h == 0 || int(h) > len(a.ids) {
		return id.ID{}
	}
	return a.ids[h-1]
}

// engine returns a blame engine over the archive.
func (a *handArchive) engine(cfg BlameConfig, opts ...BlameOption) (*BlameEngine, error) {
	return NewBlameEngine(a.Archive, a, cfg, opts...)
}
