//! The ground-truth world behind the synthetic dataset.
//!
//! The paper's dataset is proprietary (20M+ iQiyi sessions). What its
//! analysis establishes, though, is *structure*, and that structure is
//! what the evaluation depends on:
//!
//! - **Observation 2**: within a session, throughput evolves as a sticky
//!   hidden-state process (the paper conjectures TCP fair-sharing: the
//!   hidden state is the number of flows at the bottleneck).
//! - **Observation 3**: sessions sharing key features have similar
//!   throughput behaviour.
//! - **Observation 4**: feature effects are high-dimensional — ISP, city
//!   and server *jointly* determine throughput; single features do not.
//!
//! So the ground truth here *is* that structure: every (ISP, city, server)
//! combination owns a [`PathProfile`] — a sticky Markov-modulated Gaussian
//! process whose level set derives from a base capacity with explicitly
//! multiplicative per-feature factors **plus a combination-specific
//! interaction term** (making single-feature prediction provably lossy).
//! Client prefixes map many-to-one onto (ISP, province, city), mirroring
//! how real address blocks work, and a diurnal load curve modulates
//! everything by hour of day.

use cs2p_ml::gaussian::Gaussian;
use cs2p_ml::hmm::{Emission, Hmm};
use cs2p_ml::matrix::Matrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Sizing and randomness of the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of ISPs (paper dataset: 87; default scaled down).
    pub n_isps: usize,
    /// Number of provinces (paper: 33).
    pub n_provinces: usize,
    /// Cities per province (paper total: 736).
    pub cities_per_province: usize,
    /// Number of servers (paper: 18).
    pub n_servers: usize,
    /// Number of client /16 prefixes (paper: millions of client IPs).
    pub n_prefixes: usize,
    /// ASes per ISP (paper: 161 ASes over 87 ISPs).
    pub ases_per_isp: usize,
    /// Hidden congestion states per path profile.
    pub n_states: usize,
    /// Master seed; every profile derives its own deterministic stream.
    pub seed: u64,
    /// Day-over-day parameter drift: log-normal sigma of the multiplicative
    /// capacity shift each path compounds per day (see
    /// [`World::path_profile_at`]). `0` disables drift entirely — day `d`
    /// then equals day 0 bit for bit. This is the knob behind the paper's
    /// daily-refresh rationale (§5): with drift on, a model trained on day
    /// 0 systematically mispredicts day 1.
    pub drift: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            n_isps: 4,
            n_provinces: 3,
            cities_per_province: 2,
            n_servers: 3,
            n_prefixes: 120,
            ases_per_isp: 2,
            n_states: 4,
            seed: 0,
            drift: 0.0,
        }
    }
}

/// A client prefix's static attachment: which ISP/AS/province/city it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixInfo {
    /// ISP id.
    pub isp: u32,
    /// AS id (derived from ISP).
    pub asn: u32,
    /// Province id.
    pub province: u32,
    /// City id (globally unique across provinces).
    pub city: u32,
}

/// The ground-truth throughput process of one (ISP, city, server) path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// Base capacity of the path in Mbps (state-1 mean).
    pub base_mbps: f64,
    /// The Markov-modulated Gaussian generating epoch throughput.
    pub hmm: Hmm,
}

/// The generated world: prefix attachments plus path-profile parameters.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    prefixes: Vec<PrefixInfo>,
    /// Per-ISP capacity factor.
    isp_factor: Vec<f64>,
    /// Per-city congestion factor.
    city_factor: Vec<f64>,
    /// Per-server load factor.
    server_factor: Vec<f64>,
}

/// Relative state levels: state 0 is the uncongested path; deeper states
/// model more flows sharing the bottleneck (TCP fair-share fractions).
const STATE_LEVELS: [f64; 6] = [1.0, 0.6, 0.35, 0.2, 1.35, 0.1];

impl World {
    /// Builds the world deterministically from its config.
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.n_states >= 2 && config.n_states <= STATE_LEVELS.len());
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5741_4C44); // "WALD"

        let n_cities = config.n_provinces * config.cities_per_province;
        // Per-feature factors span roughly an order of magnitude in
        // combination, like residential broadband tiers.
        let isp_factor: Vec<f64> = (0..config.n_isps)
            .map(|_| lognormal(&mut rng, 0.0, 0.45))
            .collect();
        let city_factor: Vec<f64> = (0..n_cities)
            .map(|_| lognormal(&mut rng, 0.0, 0.35))
            .collect();
        let server_factor: Vec<f64> = (0..config.n_servers)
            .map(|_| lognormal(&mut rng, 0.0, 0.3))
            .collect();

        let prefixes: Vec<PrefixInfo> = (0..config.n_prefixes)
            .map(|_| {
                let isp = rng.gen_range(0..config.n_isps) as u32;
                let asn =
                    isp * config.ases_per_isp as u32 + rng.gen_range(0..config.ases_per_isp) as u32;
                let province = rng.gen_range(0..config.n_provinces) as u32;
                let city = province * config.cities_per_province as u32
                    + rng.gen_range(0..config.cities_per_province) as u32;
                PrefixInfo {
                    isp,
                    asn,
                    province,
                    city,
                }
            })
            .collect();

        World {
            config,
            prefixes,
            isp_factor,
            city_factor,
            server_factor,
        }
    }

    /// The world's configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Number of client prefixes.
    pub fn n_prefixes(&self) -> usize {
        self.prefixes.len()
    }

    /// A prefix's static attachment.
    pub fn prefix_info(&self, prefix: u32) -> PrefixInfo {
        self.prefixes[prefix as usize]
    }

    /// Diurnal load multiplier for an hour of day: capacity dips in the
    /// evening peak (around 21h, factor ~0.8) and is best in the small
    /// hours (around 09h off-phase, factor ~1.2).
    pub fn diurnal_factor(hour: u64) -> f64 {
        1.0 + diurnal_raw(hour as f64)
    }

    /// The ground-truth path profile for one (ISP, city, server) triple.
    ///
    /// The interaction term is what makes Observation 4 hold: it is drawn
    /// from a stream seeded by the *triple*, so no sum of single-feature
    /// effects can explain it.
    pub fn path_profile(&self, isp: u32, city: u32, server: u32) -> PathProfile {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((isp as u64) << 40) | ((city as u64) << 20) | server as u64),
        );
        // Interaction: +/- up to ~1.6x, specific to the triple.
        let interaction = lognormal(&mut rng, 0.0, 0.4);
        // Base calibrated to Figure 3b's residential-broadband shape:
        // median per-epoch throughput a few Mbps, so the Envivio ladder
        // (0.35–3 Mbps) actually exercises the adaptation logic.
        let base = 3.5
            * self.isp_factor[isp as usize % self.isp_factor.len()]
            * self.city_factor[city as usize % self.city_factor.len()]
            * self.server_factor[server as usize % self.server_factor.len()]
            * interaction;
        let base = base.clamp(0.25, 24.0);

        let n = self.config.n_states;
        // Sticky transitions: self-probability 0.90–0.97 per state.
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let stay = rng.gen_range(0.90..0.97);
            let mut row = vec![0.0; n];
            let spread = (1.0 - stay) / (n - 1) as f64;
            for (j, r) in row.iter_mut().enumerate() {
                *r = if j == i { stay } else { spread };
            }
            rows.push(row);
        }
        // Initial distribution biased to the uncongested state.
        let mut initial = vec![0.15 / (n - 1) as f64; n];
        initial[0] = 0.85;

        // Within-state noise is tight; most epoch-to-epoch variability
        // comes from state switches and the generator's transient dips.
        let emissions: Vec<Emission> = (0..n)
            .map(|i| {
                let mean = (base * STATE_LEVELS[i]).max(0.45);
                let sigma = (mean * rng.gen_range(0.11..0.19f64)).max(1e-3);
                Emission::Gaussian(Gaussian::new(mean, sigma))
            })
            .collect();

        PathProfile {
            base_mbps: base,
            hmm: Hmm::new(initial, Matrix::from_rows(&rows), emissions),
        }
    }

    /// The path profile as of day `day` (0-based): the day-0 profile of
    /// [`path_profile`](Self::path_profile) with `day` compounded
    /// multiplicative capacity shifts applied to the base and every state
    /// mean (sigmas scale along, keeping relative noise constant; the
    /// chain dynamics — stickiness and initial bias — do not drift).
    ///
    /// Each shift is `exp(drift · N(0, 1))`, drawn from a stream seeded by
    /// the *(path, drift)* pair and separate from the day-0 stream — so
    /// turning drift on never perturbs the day-0 world, and `drift == 0`
    /// or `day == 0` returns the base profile bit for bit.
    pub fn path_profile_at(&self, isp: u32, city: u32, server: u32, day: u64) -> PathProfile {
        let base = self.path_profile(isp, city, server);
        if self.config.drift == 0.0 || day == 0 {
            return base;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0xD81F_75A7_0000_0001) // distinct from the day-0 stream
                .wrapping_add(((isp as u64) << 40) | ((city as u64) << 20) | server as u64)
                ^ 0x4452_4946_5400, // "DRIFT"
        );
        let mut factor = 1.0;
        for _ in 0..day {
            factor *= lognormal(&mut rng, 0.0, self.config.drift);
        }
        let emissions: Vec<Emission> = base
            .hmm
            .emissions
            .iter()
            .map(|e| match e {
                Emission::Gaussian(g) => {
                    Emission::Gaussian(Gaussian::new(g.mu * factor, g.sigma * factor))
                }
                Emission::LogNormal(g) => {
                    Emission::LogNormal(Gaussian::new(g.mu * factor, g.sigma * factor))
                }
            })
            .collect();
        PathProfile {
            base_mbps: base.base_mbps * factor,
            hmm: Hmm::new(
                base.hmm.initial.clone(),
                base.hmm.transition.clone(),
                emissions,
            ),
        }
    }
}

/// The actual diurnal shape: multiplier in [0.92, 1.08]. Kept moderate —
/// the hour-of-day effect is real but secondary to path congestion states,
/// and the clustering's same-hour time windows are what absorb it.
fn diurnal_raw(hour: f64) -> f64 {
    let phase = (hour - 21.0) / 24.0 * std::f64::consts::TAU;
    -0.08 * phase.cos()
}

fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    (mu + sigma * cs2p_ml::gaussian::box_muller(u1, u2)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic() {
        let a = World::new(WorldConfig::default());
        let b = World::new(WorldConfig::default());
        assert_eq!(a.prefix_info(5), b.prefix_info(5));
        let pa = a.path_profile(1, 2, 3);
        let pb = b.path_profile(1, 2, 3);
        assert_eq!(pa, pb);
    }

    #[test]
    fn different_seeds_different_worlds() {
        let a = World::new(WorldConfig::default());
        let b = World::new(WorldConfig {
            seed: 99,
            ..Default::default()
        });
        let pa = a.path_profile(0, 0, 0);
        let pb = b.path_profile(0, 0, 0);
        assert_ne!(pa.base_mbps, pb.base_mbps);
    }

    #[test]
    fn prefix_attachments_are_consistent() {
        let w = World::new(WorldConfig::default());
        let cfg = w.config().clone();
        for p in 0..w.n_prefixes() as u32 {
            let info = w.prefix_info(p);
            assert!((info.isp as usize) < cfg.n_isps);
            assert!((info.province as usize) < cfg.n_provinces);
            // City belongs to the prefix's province.
            let city_province = info.city as usize / cfg.cities_per_province;
            assert_eq!(city_province, info.province as usize);
            // AS belongs to the prefix's ISP.
            assert_eq!(info.asn / cfg.ases_per_isp as u32, info.isp);
        }
    }

    #[test]
    fn profiles_have_valid_sticky_hmms() {
        let w = World::new(WorldConfig::default());
        for (isp, city, server) in [(0, 0, 0), (3, 7, 2), (5, 19, 4)] {
            let p = w.path_profile(isp, city, server);
            assert!(p.hmm.validate().is_ok());
            for i in 0..p.hmm.n_states() {
                assert!(p.hmm.transition[(i, i)] >= 0.90);
            }
            assert!(p.base_mbps >= 0.3 && p.base_mbps <= 60.0);
        }
    }

    #[test]
    fn interaction_breaks_additivity() {
        // Observation 4: the triple effect is not the product of pairwise
        // effects. Check that base(i,c,s) ratios across servers differ by
        // city — impossible under a purely multiplicative model.
        let w = World::new(WorldConfig::default());
        let r_city0 = w.path_profile(0, 0, 0).base_mbps / w.path_profile(0, 0, 1).base_mbps;
        let r_city1 = w.path_profile(0, 1, 0).base_mbps / w.path_profile(0, 1, 1).base_mbps;
        assert!(
            (r_city0 - r_city1).abs() > 1e-6,
            "interaction term missing: {r_city0} == {r_city1}"
        );
    }

    #[test]
    fn diurnal_shape_peaks_at_night_troughs_in_evening() {
        let early = 1.0 + diurnal_raw(9.0); // morning
        let peak = 1.0 + diurnal_raw(21.0); // evening peak
        let night = 1.0 + diurnal_raw(33.0 % 24.0); // 09h again via wrap
        assert!(peak < early, "evening should be congested");
        assert!((early - night).abs() < 1e-9, "24h periodic");
        for h in 0..24 {
            let f = 1.0 + diurnal_raw(h as f64);
            assert!((0.7..=1.3).contains(&f), "hour {h}: factor {f}");
        }
    }

    #[test]
    fn zero_drift_profiles_are_bitwise_day_invariant() {
        let w = World::new(WorldConfig::default());
        let base = w.path_profile(1, 3, 2);
        for day in 0..4 {
            assert_eq!(w.path_profile_at(1, 3, 2, day), base);
        }
    }

    #[test]
    fn drift_leaves_day_zero_untouched() {
        let still = World::new(WorldConfig::default());
        let drifting = World::new(WorldConfig {
            drift: 0.4,
            ..Default::default()
        });
        assert_eq!(
            still.path_profile(2, 1, 0),
            drifting.path_profile_at(2, 1, 0, 0),
            "turning drift on must not perturb the day-0 world"
        );
    }

    #[test]
    fn drift_shifts_later_days_deterministically() {
        let w = World::new(WorldConfig {
            drift: 0.4,
            ..Default::default()
        });
        let d0 = w.path_profile_at(0, 0, 0, 0);
        let d1 = w.path_profile_at(0, 0, 0, 1);
        let d2 = w.path_profile_at(0, 0, 0, 2);
        assert_ne!(d0.base_mbps, d1.base_mbps);
        assert_ne!(d1.base_mbps, d2.base_mbps);
        // Same factor on every state mean: dynamics don't drift.
        assert_eq!(d0.hmm.transition, d1.hmm.transition);
        assert_eq!(d0.hmm.initial, d1.hmm.initial);
        let ratio = d1.base_mbps / d0.base_mbps;
        for (a, b) in d0.hmm.emissions.iter().zip(&d1.hmm.emissions) {
            assert!((b.mean() / a.mean() - ratio).abs() < 1e-9);
        }
        assert!(d1.hmm.validate().is_ok() && d2.hmm.validate().is_ok());
        // Deterministic: same world, same day, same profile.
        assert_eq!(d2, w.path_profile_at(0, 0, 0, 2));
    }

    #[test]
    fn state_means_are_distinct_within_profile() {
        let w = World::new(WorldConfig::default());
        let p = w.path_profile(2, 5, 1);
        let mut means: Vec<f64> = p.hmm.emissions.iter().map(|e| e.mean()).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in means.windows(2) {
            assert!(pair[1] / pair[0] > 1.2, "states too close: {means:?}");
        }
    }
}
