package volatility

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/guestos"
	"repro/internal/hv"
)

// dumpFile is the on-disk representation of a Dump: the raw memory
// image plus the metadata needed to re-analyze it later (profile and
// System.map), gzip-compressed. This is what lets CRIMES write its
// post-incident checkpoints to disk (§5.5: "three full system
// checkpoints for future analysis") and analyze them offline.
type dumpFile struct {
	Name      string
	Pages     int
	VCPU      hv.VCPU
	Mem       []byte
	Profile   guestos.Profile
	SystemMap string
}

// Save writes the dump to w.
func (d *Dump) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	err := enc.Encode(dumpFile{
		Name:      d.Snapshot.Name,
		Pages:     d.Snapshot.Pages,
		VCPU:      d.Snapshot.VCPU,
		Mem:       d.Snapshot.Bytes(),
		Profile:   *d.Profile,
		SystemMap: d.SystemMap,
	})
	if err != nil {
		return fmt.Errorf("volatility: save dump: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("volatility: save dump: %w", err)
	}
	return nil
}

// SaveFile writes the dump to a file.
func (d *Dump) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("volatility: save dump: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("volatility: save dump: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := d.Save(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a dump written by Save.
func Load(r io.Reader) (*Dump, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("volatility: load dump: %w", err)
	}
	defer zr.Close()
	var df dumpFile
	if err := gob.NewDecoder(zr).Decode(&df); err != nil {
		return nil, fmt.Errorf("volatility: load dump: %w", err)
	}
	if df.Pages*4096 != len(df.Mem) {
		return nil, fmt.Errorf("volatility: load dump: %d pages but %d bytes: %w",
			df.Pages, len(df.Mem), ErrBadDump)
	}
	snap, err := hv.SnapshotFromImage(df.Name, df.VCPU, df.Mem)
	if err != nil {
		return nil, fmt.Errorf("volatility: load dump: %v: %w", err, ErrBadDump)
	}
	prof := df.Profile
	return &Dump{
		Snapshot:  snap,
		Profile:   &prof,
		SystemMap: df.SystemMap,
	}, nil
}

// LoadFile reads a dump file written by SaveFile.
func LoadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("volatility: load dump: %w", err)
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}
