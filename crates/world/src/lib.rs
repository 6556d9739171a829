//! # dohperf-world
//!
//! The world model underlying the global measurement campaign:
//!
//! * [`countries`] — an embedded table of 230+ countries and territories
//!   with centroid coordinates, region, GDP per capita, national fixed
//!   broadband speed and autonomous-system count. Values are approximate
//!   public figures for 2021 (World Bank, Ookla Speedtest Global Index,
//!   IPInfo) — the regression covariates of the paper's §6.
//! * [`cities`](mod@cities) — an embedded table of major world cities
//!   used to place DoH provider points of presence.
//! * [`geoloc`] — a Maxmind-style /24-prefix geolocation service with a
//!   configurable mislabeling rate (the paper discarded 0.88% of points on
//!   BrightData/Maxmind country mismatches).
//! * [`population`] — deterministic sampling of the per-country client
//!   population, calibrated to the paper's Figure 3 distribution (10–282
//!   clients per country, median ≈ 103, 22,052 total).

pub mod cities;
pub mod countries;
pub mod geoloc;
pub mod population;

pub use cities::{cities, cities_in, City};
pub use countries::{
    all_countries, country, Country, IncomeGroup, Region, EXCLUDED_COUNTRIES, SUPER_PROXY_COUNTRIES,
};
pub use geoloc::{GeolocationService, Prefix24};
pub use population::{ClientSite, PopulationModel};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cities::{cities, cities_in, City};
    pub use crate::countries::{
        all_countries, country, Country, IncomeGroup, Region, EXCLUDED_COUNTRIES,
        SUPER_PROXY_COUNTRIES,
    };
    pub use crate::geoloc::{GeolocationService, Prefix24};
    pub use crate::population::{ClientSite, PopulationModel};
}
