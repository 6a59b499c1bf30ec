package api

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/geo"
)

// PartnerArea is one polygon of the Partner (driver) app's surge map
// (Fig 1): the area outline and its current multiplier. Unlike the Client
// app, the Partner app shows the whole city's surge at once — and no car
// locations.
type PartnerArea struct {
	Area     int          `json:"area"`
	Vertices []geo.LatLng `json:"vertices"`
	Surge    float64      `json:"surge"`
}

// ErrNotPartner is returned when a non-driver account queries the
// Partner surface.
var ErrNotPartner = errors.New("api: account is not a registered partner")

// RegisterPartner creates a driver account. The paper notes Uber requires
// drivers to sign a data-collection prohibition before using this
// surface; agreeing is a precondition here too (the authors declined, and
// reconstructed the map from the public API instead — see
// internal/surgemap).
func (s *Service) RegisterPartner(driverID string, agreeNoScraping bool) error {
	if !agreeNoScraping {
		return errors.New("api: partners must accept the data-collection agreement")
	}
	if s.accounts.registerPartner(driverID) {
		s.mRegistrations.Inc()
	}
	return nil
}

// PartnerMap returns the surge map the Partner app renders: every surge
// area polygon with its current multiplier (API stream semantics — the
// driver map has no jitter). Served from the published snapshot, lock-free.
func (s *Service) PartnerMap(driverID string) ([]PartnerArea, error) {
	if !s.accounts.isPartner(driverID) {
		return nil, ErrNotPartner
	}
	st := s.acquire()
	defer st.release()
	snap, sv := st.world, st.surge
	out := make([]PartnerArea, 0, len(snap.Areas))
	for a, pg := range snap.Areas {
		pa := PartnerArea{Area: a, Surge: sv.APIMultiplier(a, snap.Now)}
		for _, v := range pg.Vertices {
			pa.Vertices = append(pa.Vertices, snap.Proj.ToLatLng(v))
		}
		out = append(out, pa)
	}
	return out, nil
}

// handlePartnerMap serves GET /partner/surgeMap?driver=...
func (s *Server) handlePartnerMap(w http.ResponseWriter, r *http.Request) {
	driver := r.URL.Query().Get("driver")
	if driver == "" {
		WriteError(w, http.StatusBadRequest, "driver parameter required")
		return
	}
	m, err := s.svc.PartnerMap(driver)
	if err != nil {
		if errors.Is(err, ErrNotPartner) {
			WriteError(w, http.StatusForbidden, err.Error())
			return
		}
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, m)
}

// handlePartnerLogin serves POST /partner/login.
func (s *Server) handlePartnerLogin(w http.ResponseWriter, r *http.Request) {
	var body struct {
		DriverID string `json:"driver_id"`
		Agree    bool   `json:"agree_no_scraping"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.DriverID == "" {
		WriteError(w, http.StatusBadRequest, "driver_id required")
		return
	}
	if err := s.svc.RegisterPartner(body.DriverID, body.Agree); err != nil {
		WriteError(w, http.StatusForbidden, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
