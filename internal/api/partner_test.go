package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPartnerMapRequiresAgreement(t *testing.T) {
	s := testBackend(t, false)
	if err := s.RegisterPartner("driver-1", false); err == nil {
		t.Fatal("registration without agreement should fail")
	}
	// The refused registration created no account.
	if _, err := s.PartnerMap("driver-1"); !errors.Is(err, ErrUnknownAccount) {
		t.Fatalf("err = %v, want ErrUnknownAccount", err)
	}
	if err := s.RegisterPartner("driver-1", true); err != nil {
		t.Fatal(err)
	}
	m, err := s.PartnerMap("driver-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("areas = %d, want 4", len(m))
	}
	for _, pa := range m {
		if len(pa.Vertices) < 3 {
			t.Errorf("area %d has %d vertices", pa.Area, len(pa.Vertices))
		}
		if pa.Surge < 1 {
			t.Errorf("area %d surge %v", pa.Area, pa.Surge)
		}
	}
}

func TestPartnerMapMatchesAPIStream(t *testing.T) {
	s := testBackend(t, true) // jitter on: partner map must still be jitter-free
	if err := s.RegisterPartner("d", true); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * 3600)
	m, err := s.PartnerMap("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range m {
		want := s.Engine().View().APIMultiplier(pa.Area, s.Now())
		if pa.Surge != want {
			t.Errorf("area %d: partner %v != api %v", pa.Area, pa.Surge, want)
		}
	}
}

func TestClientAccountIsNotPartner(t *testing.T) {
	s := testBackend(t, false)
	// "tester" is a rider account; the partner surface must reject it.
	if _, err := s.PartnerMap("tester"); !errors.Is(err, ErrNotPartner) {
		t.Fatalf("err = %v, want ErrNotPartner", err)
	}
}

func TestPartnerHTTPEndpoints(t *testing.T) {
	svc := Scenario{City: "sf", Seed: 3}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	// Login without agreement: 403.
	body, _ := json.Marshal(map[string]any{"driver_id": "d9", "agree_no_scraping": false})
	resp, err := http.Post(ts.URL+"/partner/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("login without agreement: status %d, want 403", resp.StatusCode)
	}

	// Proper login.
	body, _ = json.Marshal(map[string]any{"driver_id": "d9", "agree_no_scraping": true})
	resp, err = http.Post(ts.URL+"/partner/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login: status %d", resp.StatusCode)
	}

	// Fetch the surge map.
	resp, err = http.Get(ts.URL + "/partner/surgeMap?driver=d9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surgeMap: status %d", resp.StatusCode)
	}
	var m []PartnerArea
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Errorf("areas = %d", len(m))
	}

	// Unknown driver: 401, like an unknown client, so a gateway relogins it.
	resp, err = http.Get(ts.URL + "/partner/surgeMap?driver=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("ghost driver: status %d, want 401", resp.StatusCode)
	}
	// A rider account that is not a partner: 403.
	if err := svc.Register("rider"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/partner/surgeMap?driver=rider")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("rider account: status %d, want 403", resp.StatusCode)
	}
	// Missing driver param: 400.
	resp, err = http.Get(ts.URL + "/partner/surgeMap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing param: status %d, want 400", resp.StatusCode)
	}
}
