package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cbes/internal/raceflag"
)

// csvGolden holds the SHA-256 of every CSV that `experiments -run all`
// exports at tinyCfg (Scale 0.01, Seed 42). The lab's calibration does not
// depend on its Config, so `experiments -run all -scale 0.01 -seed 42 -csv
// DIR` writes files with these same digests. A change that moves one
// figure of one table moves one of these.
var csvGolden = map[string]string{
	"phase1_errors.csv": "9004a14d5c80457c60463ab2b346620665c9040092ed113c1f16f733444d8116",
	"fig5.csv":          "f4af7af295cfaa5023c9b233cc27b6d3fdb322accfd4def5d524f8fa28e3f739",
	"phase3.csv":        "415fc13de995fec2f76b5c9104f174598718c9ee2ba2fda2ffa39a80f52c35c7",
	"fig6.csv":          "534193948ecb7320ae482cda493ae94e5b95fc917779cfd6fe474e788bfcad5d",
	"table1.csv":        "ead1ac194aa3c6963ec98a546bb563d52644b5dc593c795d9672c8cafab0ba87",
	"table2.csv":        "14b617144a02817697f379eeb22dfde95bef6099fb87cbbce68c0ac9abeb54c0",
	"fig7.csv":          "19b232dafea50400ebf675385d245132c7301547225ea69d2c298586c5b5d811",
	"table3.csv":        "e3e1f89af0a8684fa3de4a866d6ea671a83cf3e672818797a0771dacdeaa9b5a",
	"table4.csv":        "3ab63b93ab8919b9cf4b6d5f0b5be83a882a2c79562593558bb0e9f6101b4669",
	"headline.csv":      "a84832b657c23886697e98caa6b3242b4c39f8b821607eca72930d59b2e690f0",
	"faulttol.csv":      "7b55a0e3412339b29af598a54f4aa599a05d93cc7ca3bb54df2e269e1f7e35a6",
}

// TestCSVGolden pins every exported CSV byte for byte. The digests were
// taken on amd64, which never fuses a multiply and an add; architectures
// that do may differ in the last bit of a figure. It checks determinism,
// not races, so it skips under -race, where the experiments are too slow.
func TestCSVGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are for amd64 floating point")
	}
	if raceflag.Enabled {
		t.Skip("a determinism check; the experiments are impractically slow under -race")
	}
	t2 := tiny(t, "table2", Table2)
	dir := t.TempDir()
	if err := ExportAll(dir,
		tiny(t, "phase1", Phase1Sweep),
		tiny(t, "fig5", Fig5),
		tiny(t, "phase3", Phase3LoadSensitivity),
		tiny(t, "fig6", Fig6LUZones),
		tiny(t, "table1", Table1),
		t2,
		Fig7(t2),
		tiny(t, "table3", Table3),
		tiny(t, "table4", Table4),
		tiny(t, "headline", Headline),
		tiny(t, "faulttol", FaultTolerance),
	); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(csvGolden) {
		t.Errorf("exported %d files, want %d", len(entries), len(csvGolden))
	}
	for name, want := range csvGolden {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s moved:\n got %s\nwant %s", name, got, want)
		}
	}
}
