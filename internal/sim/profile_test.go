package sim

import "testing"

func TestProfileByName(t *testing.T) {
	for _, tc := range []struct {
		name, want string // want "" = error
	}{
		{"manhattan", "manhattan"},
		{"mhtn", "manhattan"},
		{"nyc", "manhattan"},
		{"sf", "sf"},
		{"sanfrancisco", "sf"},
		{"", ""},
		{"SF", ""},
		{"boston", ""},
	} {
		p, err := ProfileByName(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ProfileByName(%q) = %q, want an error", tc.name, p.Name)
		case tc.want != "" && err != nil:
			t.Errorf("ProfileByName(%q): %v", tc.name, err)
		case tc.want != "" && p.Name != tc.want:
			t.Errorf("ProfileByName(%q).Name = %q, want %q", tc.name, p.Name, tc.want)
		}
	}
	// Every built-in profile resolves by the name it records in headers.
	for _, p := range []*CityProfile{Manhattan(), SanFrancisco()} {
		if q, err := ProfileByName(p.Name); err != nil || q.Name != p.Name {
			t.Errorf("profile %q does not resolve by its own name: %v", p.Name, err)
		}
	}
}
