//! Embedded country and territory dataset.
//!
//! One row per country/territory with the covariates the paper's §6 models
//! consume. Values are **approximate public figures for 2021**:
//!
//! * `gdp_per_capita` — World Bank GDP per capita, current US$;
//! * `bandwidth_mbps` — Ookla Speedtest Global Index mean fixed broadband
//!   download speed;
//! * `as_count` — IPInfo's count of autonomous systems registered in the
//!   country.
//!
//! Coordinates are rough population centroids, adequate for the geodesic
//! latency model (country-scale errors are small next to intercontinental
//! distances). The table intentionally over-covers: the campaign samples
//! the 224 countries/territories of the paper from it, and the 25 excluded
//! ones (China, North Korea, …) are listed in [`EXCLUDED_COUNTRIES`].

use dohperf_netsim::latency::InfraProfile;
use dohperf_netsim::topology::GeoPoint;

/// Continent-level region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Africa.
    Africa,
    /// Asia (including the Middle East).
    Asia,
    /// Europe.
    Europe,
    /// North and Central America and the Caribbean.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Oceania.
    Oceania,
}

/// World Bank income classification (FY2021 GNI-per-capita thresholds,
/// applied here to GDP per capita as the paper does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IncomeGroup {
    /// Below $1,046.
    Low,
    /// $1,046 – $4,095.
    LowerMiddle,
    /// $4,096 – $12,695.
    UpperMiddle,
    /// Above $12,695.
    High,
}

/// One country/territory record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Country {
    /// ISO 3166-1 alpha-2 code.
    pub iso: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Population-centroid latitude.
    pub lat: f64,
    /// Population-centroid longitude.
    pub lon: f64,
    /// Continent region.
    pub region: Region,
    /// GDP per capita, current US$ (~2021).
    pub gdp_per_capita: f64,
    /// Mean fixed broadband download speed, Mbps (~2021).
    pub bandwidth_mbps: f64,
    /// Registered autonomous systems (~2021).
    pub as_count: u32,
}

impl Country {
    /// Centroid as a geographic point.
    pub fn centroid(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }

    /// World Bank income group from GDP per capita.
    pub fn income_group(&self) -> IncomeGroup {
        if self.gdp_per_capita < 1_046.0 {
            IncomeGroup::Low
        } else if self.gdp_per_capita < 4_096.0 {
            IncomeGroup::LowerMiddle
        } else if self.gdp_per_capita < 12_696.0 {
            IncomeGroup::UpperMiddle
        } else {
            IncomeGroup::High
        }
    }

    /// FCC "fast Internet" check used as the paper's Bandwidth covariate
    /// (> 25 Mbps).
    pub fn has_fast_internet(&self) -> bool {
        self.bandwidth_mbps > 25.0
    }

    /// Residential infrastructure profile for the netsim latency model.
    pub fn residential_profile(&self) -> InfraProfile {
        InfraProfile::residential(self.bandwidth_mbps, self.as_count)
    }

    /// Data-centre infrastructure profile (for PoPs/servers hosted here).
    pub fn datacenter_profile(&self) -> InfraProfile {
        InfraProfile::datacenter(self.as_count)
    }

    /// ISO code as a fixed byte pair (for netsim node tagging).
    pub fn iso_bytes(&self) -> [u8; 2] {
        let b = self.iso.as_bytes();
        [b[0], b[1]]
    }
}

/// Countries where BrightData Super Proxies are located; Do53 measurements
/// through the proxy are invalid there and the RIPE Atlas remedy is used
/// (paper §3.5).
pub const SUPER_PROXY_COUNTRIES: [&str; 11] = [
    "US", "CA", "GB", "IN", "JP", "KR", "SG", "DE", "NL", "FR", "AU",
];

/// Countries/territories excluded from the paper's per-country analysis
/// (fewer than 10 clients completed all four DoH measurements — notably
/// China, where 99% of DoH queries were dropped).
pub const EXCLUDED_COUNTRIES: [&str; 25] = [
    "CN", "KP", "SA", "OM", "TM", "ER", "GQ", "VA", "NU", "TK", "BL", "MF", "SJ", "IO", "CX", "CC",
    "NF", "GS", "PN", "UM", "AQ", "BV", "HM", "TF", "AN",
];

/// The full embedded table.
pub fn all_countries() -> &'static [Country] {
    COUNTRIES
}

/// Look up by ISO alpha-2 code (case-insensitive).
pub fn country(iso: &str) -> Option<&'static Country> {
    COUNTRIES.iter().find(|c| c.iso.eq_ignore_ascii_case(iso))
}

macro_rules! country_rows {
    ($( ($iso:literal, $name:literal, $lat:expr, $lon:expr, $region:ident, $gdp:expr, $mbps:expr, $ases:expr) ),+ $(,)?) => {
        [$( Country {
            iso: $iso,
            name: $name,
            lat: $lat,
            lon: $lon,
            region: Region::$region,
            gdp_per_capita: $gdp,
            bandwidth_mbps: $mbps,
            as_count: $ases,
        } ),+]
    };
}

/// ~2021 snapshot. Sources: World Bank (GDP pc), Ookla Global Index
/// (fixed broadband Mbps), IPInfo (AS counts); values rounded.
static COUNTRIES: &[Country] = &country_rows![
    // --- North America, Central America, Caribbean ---
    (
        "US",
        "United States",
        39.8,
        -98.6,
        NorthAmerica,
        69288.0,
        195.0,
        17050
    ),
    (
        "CA",
        "Canada",
        56.1,
        -106.3,
        NorthAmerica,
        51988.0,
        160.0,
        1480
    ),
    (
        "MX",
        "Mexico",
        23.6,
        -102.6,
        NorthAmerica,
        10046.0,
        48.0,
        520
    ),
    (
        "GT",
        "Guatemala",
        15.8,
        -90.2,
        NorthAmerica,
        5026.0,
        22.0,
        48
    ),
    ("BZ", "Belize", 17.2, -88.7, NorthAmerica, 6228.0, 18.0, 8),
    (
        "SV",
        "El Salvador",
        13.8,
        -88.9,
        NorthAmerica,
        4551.0,
        32.0,
        28
    ),
    (
        "HN",
        "Honduras",
        14.8,
        -86.6,
        NorthAmerica,
        2772.0,
        17.0,
        35
    ),
    (
        "NI",
        "Nicaragua",
        12.9,
        -85.2,
        NorthAmerica,
        2090.0,
        24.0,
        23
    ),
    (
        "CR",
        "Costa Rica",
        9.7,
        -84.0,
        NorthAmerica,
        12472.0,
        46.0,
        80
    ),
    ("PA", "Panama", 8.5, -80.8, NorthAmerica, 14617.0, 88.0, 72),
    ("CU", "Cuba", 21.5, -79.5, NorthAmerica, 9500.0, 4.0, 4),
    ("JM", "Jamaica", 18.1, -77.3, NorthAmerica, 5184.0, 38.0, 27),
    ("HT", "Haiti", 19.0, -72.7, NorthAmerica, 1815.0, 8.0, 15),
    (
        "DO",
        "Dominican Republic",
        18.7,
        -70.2,
        NorthAmerica,
        8477.0,
        35.0,
        55
    ),
    (
        "PR",
        "Puerto Rico",
        18.2,
        -66.4,
        NorthAmerica,
        32874.0,
        110.0,
        30
    ),
    (
        "BS",
        "Bahamas",
        24.7,
        -77.8,
        NorthAmerica,
        27478.0,
        55.0,
        10
    ),
    (
        "BB",
        "Barbados",
        13.2,
        -59.5,
        NorthAmerica,
        17225.0,
        75.0,
        6
    ),
    (
        "TT",
        "Trinidad and Tobago",
        10.5,
        -61.3,
        NorthAmerica,
        15243.0,
        60.0,
        18
    ),
    (
        "BM",
        "Bermuda",
        32.3,
        -64.8,
        NorthAmerica,
        114090.0,
        170.0,
        8
    ),
    (
        "KY",
        "Cayman Islands",
        19.3,
        -81.3,
        NorthAmerica,
        86569.0,
        95.0,
        6
    ),
    (
        "AG",
        "Antigua and Barbuda",
        17.1,
        -61.8,
        NorthAmerica,
        15781.0,
        42.0,
        6
    ),
    ("DM", "Dominica", 15.4, -61.4, NorthAmerica, 7653.0, 30.0, 4),
    ("GD", "Grenada", 12.1, -61.7, NorthAmerica, 9011.0, 33.0, 4),
    (
        "KN",
        "Saint Kitts and Nevis",
        17.3,
        -62.7,
        NorthAmerica,
        18082.0,
        40.0,
        4
    ),
    (
        "LC",
        "Saint Lucia",
        13.9,
        -61.0,
        NorthAmerica,
        9414.0,
        38.0,
        5
    ),
    (
        "VC",
        "Saint Vincent and the Grenadines",
        13.2,
        -61.2,
        NorthAmerica,
        8666.0,
        32.0,
        4
    ),
    ("AW", "Aruba", 12.5, -70.0, NorthAmerica, 29342.0, 52.0, 4),
    ("CW", "Curacao", 12.2, -69.0, NorthAmerica, 17717.0, 58.0, 8),
    (
        "SX",
        "Sint Maarten",
        18.0,
        -63.1,
        NorthAmerica,
        29160.0,
        50.0,
        4
    ),
    (
        "TC",
        "Turks and Caicos Islands",
        21.8,
        -71.8,
        NorthAmerica,
        23880.0,
        45.0,
        3
    ),
    (
        "VG",
        "British Virgin Islands",
        18.4,
        -64.6,
        NorthAmerica,
        34246.0,
        48.0,
        3
    ),
    (
        "VI",
        "U.S. Virgin Islands",
        18.3,
        -64.9,
        NorthAmerica,
        39552.0,
        72.0,
        4
    ),
    (
        "AI",
        "Anguilla",
        18.2,
        -63.1,
        NorthAmerica,
        19891.0,
        40.0,
        2
    ),
    (
        "GL",
        "Greenland",
        64.2,
        -51.7,
        NorthAmerica,
        54571.0,
        65.0,
        2
    ),
    (
        "GP",
        "Guadeloupe",
        16.2,
        -61.5,
        NorthAmerica,
        23695.0,
        70.0,
        5
    ),
    (
        "MQ",
        "Martinique",
        14.6,
        -61.0,
        NorthAmerica,
        24713.0,
        72.0,
        5
    ),
    // --- South America ---
    (
        "BR",
        "Brazil",
        -14.2,
        -51.9,
        SouthAmerica,
        7507.0,
        90.0,
        8350
    ),
    (
        "AR",
        "Argentina",
        -34.6,
        -64.0,
        SouthAmerica,
        10636.0,
        52.0,
        950
    ),
    (
        "CL",
        "Chile",
        -33.5,
        -70.7,
        SouthAmerica,
        16265.0,
        180.0,
        310
    ),
    (
        "CO",
        "Colombia",
        4.6,
        -74.1,
        SouthAmerica,
        6104.0,
        46.0,
        400
    ),
    ("PE", "Peru", -12.0, -77.0, SouthAmerica, 6692.0, 55.0, 170),
    (
        "VE",
        "Venezuela",
        10.5,
        -66.9,
        SouthAmerica,
        3740.0,
        9.0,
        85
    ),
    (
        "EC",
        "Ecuador",
        -1.8,
        -78.2,
        SouthAmerica,
        5965.0,
        40.0,
        110
    ),
    (
        "BO",
        "Bolivia",
        -16.5,
        -68.2,
        SouthAmerica,
        3345.0,
        19.0,
        35
    ),
    (
        "PY",
        "Paraguay",
        -25.3,
        -57.6,
        SouthAmerica,
        5415.0,
        26.0,
        60
    ),
    (
        "UY",
        "Uruguay",
        -34.9,
        -56.2,
        SouthAmerica,
        17313.0,
        105.0,
        40
    ),
    ("GY", "Guyana", 6.8, -58.2, SouthAmerica, 9999.0, 22.0, 8),
    ("SR", "Suriname", 5.8, -55.2, SouthAmerica, 4869.0, 24.0, 8),
    (
        "GF",
        "French Guiana",
        4.9,
        -52.3,
        SouthAmerica,
        18000.0,
        45.0,
        4
    ),
    // --- Europe ---
    (
        "GB",
        "United Kingdom",
        54.0,
        -2.0,
        Europe,
        46510.0,
        92.0,
        2550
    ),
    ("IE", "Ireland", 53.3, -8.0, Europe, 99152.0, 95.0, 320),
    ("FR", "France", 46.6, 2.5, Europe, 43519.0, 190.0, 1650),
    ("DE", "Germany", 51.2, 10.4, Europe, 50802.0, 120.0, 2750),
    ("NL", "Netherlands", 52.2, 5.3, Europe, 58061.0, 160.0, 1200),
    ("BE", "Belgium", 50.6, 4.7, Europe, 51768.0, 110.0, 380),
    ("LU", "Luxembourg", 49.8, 6.1, Europe, 133590.0, 150.0, 90),
    ("CH", "Switzerland", 46.8, 8.2, Europe, 93457.0, 200.0, 750),
    ("AT", "Austria", 47.6, 14.1, Europe, 53268.0, 75.0, 600),
    ("ES", "Spain", 40.2, -3.6, Europe, 30116.0, 175.0, 850),
    ("PT", "Portugal", 39.6, -8.0, Europe, 24262.0, 125.0, 110),
    ("IT", "Italy", 42.8, 12.6, Europe, 35551.0, 80.0, 720),
    ("GR", "Greece", 39.1, 22.9, Europe, 20277.0, 35.0, 170),
    ("MT", "Malta", 35.9, 14.4, Europe, 33257.0, 105.0, 25),
    ("CY", "Cyprus", 35.1, 33.2, Europe, 30799.0, 52.0, 60),
    ("SE", "Sweden", 62.2, 17.6, Europe, 60239.0, 175.0, 900),
    ("NO", "Norway", 64.6, 12.7, Europe, 89203.0, 145.0, 420),
    ("DK", "Denmark", 56.0, 10.0, Europe, 67803.0, 185.0, 350),
    ("FI", "Finland", 64.5, 26.0, Europe, 53983.0, 105.0, 330),
    ("IS", "Iceland", 64.9, -18.6, Europe, 68384.0, 190.0, 50),
    ("EE", "Estonia", 58.7, 25.5, Europe, 27281.0, 82.0, 110),
    ("LV", "Latvia", 56.9, 24.9, Europe, 20642.0, 115.0, 160),
    ("LT", "Lithuania", 55.3, 23.9, Europe, 23433.0, 120.0, 140),
    ("PL", "Poland", 52.1, 19.4, Europe, 17841.0, 110.0, 1750),
    ("CZ", "Czechia", 49.8, 15.5, Europe, 26379.0, 65.0, 1050),
    ("SK", "Slovakia", 48.7, 19.7, Europe, 21088.0, 72.0, 240),
    ("HU", "Hungary", 47.2, 19.4, Europe, 18728.0, 135.0, 360),
    ("SI", "Slovenia", 46.1, 14.8, Europe, 29201.0, 85.0, 180),
    ("HR", "Croatia", 45.1, 15.2, Europe, 17399.0, 45.0, 130),
    (
        "BA",
        "Bosnia and Herzegovina",
        43.9,
        17.7,
        Europe,
        6916.0,
        28.0,
        80
    ),
    ("RS", "Serbia", 44.2, 20.9, Europe, 9215.0, 60.0, 200),
    ("ME", "Montenegro", 42.7, 19.4, Europe, 9367.0, 42.0, 25),
    (
        "MK",
        "North Macedonia",
        41.6,
        21.7,
        Europe,
        6721.0,
        38.0,
        60
    ),
    ("AL", "Albania", 41.2, 20.2, Europe, 6493.0, 33.0, 40),
    ("XK", "Kosovo", 42.6, 20.9, Europe, 4987.0, 40.0, 25),
    ("BG", "Bulgaria", 42.7, 25.5, Europe, 11635.0, 70.0, 480),
    ("RO", "Romania", 45.9, 25.0, Europe, 14862.0, 185.0, 900),
    ("MD", "Moldova", 47.2, 28.5, Europe, 5315.0, 85.0, 90),
    ("UA", "Ukraine", 48.4, 31.2, Europe, 4836.0, 62.0, 1850),
    ("BY", "Belarus", 53.7, 28.0, Europe, 7304.0, 50.0, 100),
    ("RU", "Russia", 55.8, 37.6, Europe, 12173.0, 78.0, 5700),
    ("GI", "Gibraltar", 36.1, -5.4, Europe, 61700.0, 80.0, 4),
    ("AD", "Andorra", 42.5, 1.5, Europe, 42137.0, 150.0, 4),
    ("MC", "Monaco", 43.7, 7.4, Europe, 173688.0, 180.0, 4),
    ("SM", "San Marino", 43.9, 12.5, Europe, 45320.0, 90.0, 4),
    ("LI", "Liechtenstein", 47.2, 9.5, Europe, 169049.0, 190.0, 6),
    ("FO", "Faroe Islands", 62.0, -6.8, Europe, 69010.0, 120.0, 3),
    ("JE", "Jersey", 49.2, -2.1, Europe, 55820.0, 130.0, 6),
    ("GG", "Guernsey", 49.5, -2.6, Europe, 52490.0, 110.0, 5),
    ("IM", "Isle of Man", 54.2, -4.5, Europe, 84600.0, 95.0, 6),
    // --- Africa ---
    ("EG", "Egypt", 26.8, 30.8, Africa, 3876.0, 42.0, 80),
    ("LY", "Libya", 26.3, 17.2, Africa, 6018.0, 9.0, 15),
    ("TN", "Tunisia", 34.0, 9.6, Africa, 3807.0, 11.0, 35),
    ("DZ", "Algeria", 28.0, 1.7, Africa, 3691.0, 10.0, 25),
    ("MA", "Morocco", 31.8, -7.1, Africa, 3497.0, 24.0, 50),
    ("EH", "Western Sahara", 24.2, -12.9, Africa, 2500.0, 8.0, 2),
    ("MR", "Mauritania", 21.0, -10.9, Africa, 2166.0, 6.0, 8),
    ("ML", "Mali", 17.6, -4.0, Africa, 918.0, 5.0, 10),
    ("NE", "Niger", 17.6, 8.1, Africa, 594.0, 4.0, 6),
    ("TD", "Chad", 15.5, 18.7, Africa, 696.0, 3.0, 4),
    ("SD", "Sudan", 12.9, 30.2, Africa, 764.0, 6.0, 14),
    ("SS", "South Sudan", 7.3, 30.3, Africa, 1120.0, 4.0, 5),
    ("ET", "Ethiopia", 9.1, 40.5, Africa, 944.0, 9.0, 5),
    ("ER", "Eritrea", 15.2, 39.8, Africa, 643.0, 2.0, 2),
    ("DJ", "Djibouti", 11.8, 42.6, Africa, 3364.0, 12.0, 5),
    ("SO", "Somalia", 5.2, 46.2, Africa, 447.0, 7.0, 12),
    ("KE", "Kenya", -0.0, 37.9, Africa, 2007.0, 21.0, 120),
    ("UG", "Uganda", 1.4, 32.3, Africa, 884.0, 12.0, 45),
    ("TZ", "Tanzania", -6.4, 34.9, Africa, 1136.0, 13.0, 55),
    ("RW", "Rwanda", -1.9, 29.9, Africa, 834.0, 16.0, 15),
    ("BI", "Burundi", -3.4, 29.9, Africa, 237.0, 4.0, 5),
    ("CD", "DR Congo", -4.0, 21.8, Africa, 584.0, 7.0, 30),
    (
        "CG",
        "Republic of the Congo",
        -0.2,
        15.8,
        Africa,
        2290.0,
        6.0,
        8
    ),
    ("GA", "Gabon", -0.8, 11.6, Africa, 8017.0, 14.0, 10),
    ("GQ", "Equatorial Guinea", 1.6, 10.3, Africa, 8462.0, 7.0, 4),
    ("CM", "Cameroon", 7.4, 12.3, Africa, 1662.0, 8.0, 25),
    (
        "CF",
        "Central African Republic",
        6.6,
        20.9,
        Africa,
        512.0,
        2.0,
        3
    ),
    ("NG", "Nigeria", 9.1, 8.7, Africa, 2085.0, 15.0, 210),
    ("BJ", "Benin", 9.3, 2.3, Africa, 1319.0, 10.0, 12),
    ("TG", "Togo", 8.6, 0.8, Africa, 992.0, 9.0, 8),
    ("GH", "Ghana", 7.9, -1.0, Africa, 2445.0, 28.0, 70),
    ("CI", "Ivory Coast", 7.5, -5.5, Africa, 2579.0, 26.0, 25),
    ("BF", "Burkina Faso", 12.2, -1.6, Africa, 893.0, 6.0, 10),
    ("LR", "Liberia", 6.5, -9.4, Africa, 673.0, 5.0, 8),
    ("SL", "Sierra Leone", 8.5, -11.8, Africa, 516.0, 4.0, 7),
    ("GN", "Guinea", 9.9, -9.7, Africa, 1174.0, 7.0, 10),
    ("GW", "Guinea-Bissau", 11.8, -15.2, Africa, 795.0, 4.0, 4),
    ("SN", "Senegal", 14.5, -14.5, Africa, 1606.0, 23.0, 20),
    ("GM", "Gambia", 13.4, -15.3, Africa, 772.0, 8.0, 6),
    ("CV", "Cape Verde", 15.1, -23.6, Africa, 3293.0, 14.0, 5),
    (
        "ST",
        "Sao Tome and Principe",
        0.2,
        6.6,
        Africa,
        2360.0,
        8.0,
        3
    ),
    ("AO", "Angola", -11.2, 17.9, Africa, 1953.0, 12.0, 35),
    ("ZM", "Zambia", -13.1, 27.8, Africa, 1137.0, 11.0, 30),
    ("MW", "Malawi", -13.3, 34.3, Africa, 643.0, 8.0, 15),
    ("MZ", "Mozambique", -18.7, 35.5, Africa, 492.0, 9.0, 25),
    ("ZW", "Zimbabwe", -19.0, 29.2, Africa, 1774.0, 10.0, 30),
    ("BW", "Botswana", -22.3, 24.7, Africa, 6805.0, 13.0, 20),
    ("NA", "Namibia", -22.6, 17.1, Africa, 4729.0, 16.0, 18),
    ("SZ", "Eswatini", -26.5, 31.5, Africa, 3978.0, 10.0, 8),
    ("LS", "Lesotho", -29.6, 28.2, Africa, 1166.0, 8.0, 6),
    ("ZA", "South Africa", -29.0, 25.1, Africa, 6994.0, 44.0, 620),
    ("MG", "Madagascar", -19.0, 46.9, Africa, 515.0, 16.0, 15),
    ("MU", "Mauritius", -20.3, 57.6, Africa, 8812.0, 26.0, 25),
    ("SC", "Seychelles", -4.7, 55.5, Africa, 13306.0, 24.0, 6),
    ("KM", "Comoros", -11.6, 43.3, Africa, 1578.0, 5.0, 3),
    ("RE", "Reunion", -21.1, 55.5, Africa, 24000.0, 90.0, 6),
    ("YT", "Mayotte", -12.8, 45.2, Africa, 11000.0, 40.0, 3),
    // --- Asia & Middle East ---
    ("TR", "Turkey", 39.0, 35.2, Asia, 9587.0, 32.0, 700),
    ("GE", "Georgia", 42.3, 43.4, Asia, 5042.0, 26.0, 110),
    ("AM", "Armenia", 40.1, 45.0, Asia, 4967.0, 40.0, 80),
    ("AZ", "Azerbaijan", 40.4, 47.8, Asia, 5384.0, 22.0, 45),
    ("SY", "Syria", 35.0, 38.5, Asia, 1266.0, 7.0, 6),
    ("LB", "Lebanon", 33.9, 35.9, Asia, 4136.0, 8.0, 120),
    ("IL", "Israel", 31.4, 35.1, Asia, 51430.0, 130.0, 320),
    ("PS", "Palestine", 31.9, 35.2, Asia, 3664.0, 18.0, 55),
    ("JO", "Jordan", 31.3, 36.4, Asia, 4406.0, 58.0, 50),
    ("IQ", "Iraq", 33.2, 43.7, Asia, 4686.0, 14.0, 90),
    ("SA", "Saudi Arabia", 24.2, 44.5, Asia, 23186.0, 85.0, 110),
    ("YE", "Yemen", 15.6, 48.0, Asia, 691.0, 4.0, 8),
    ("OM", "Oman", 21.0, 57.0, Asia, 19302.0, 62.0, 30),
    (
        "AE",
        "United Arab Emirates",
        24.0,
        54.0,
        Asia,
        44315.0,
        140.0,
        140
    ),
    ("QA", "Qatar", 25.3, 51.2, Asia, 66838.0, 98.0, 30),
    ("BH", "Bahrain", 26.0, 50.5, Asia, 26563.0, 60.0, 35),
    ("KW", "Kuwait", 29.3, 47.6, Asia, 32373.0, 105.0, 35),
    ("IR", "Iran", 32.6, 54.3, Asia, 4091.0, 18.0, 500),
    ("AF", "Afghanistan", 33.8, 66.0, Asia, 368.0, 4.0, 15),
    ("PK", "Pakistan", 30.4, 69.3, Asia, 1505.0, 11.0, 120),
    ("IN", "India", 21.1, 78.7, Asia, 2277.0, 55.0, 2050),
    ("NP", "Nepal", 28.2, 84.0, Asia, 1208.0, 32.0, 60),
    ("BT", "Bhutan", 27.4, 90.4, Asia, 3266.0, 22.0, 5),
    ("BD", "Bangladesh", 23.8, 90.3, Asia, 2458.0, 34.0, 700),
    ("LK", "Sri Lanka", 7.7, 80.7, Asia, 4013.0, 26.0, 35),
    ("MV", "Maldives", 3.4, 73.4, Asia, 10366.0, 40.0, 8),
    ("MM", "Myanmar", 19.2, 96.7, Asia, 1187.0, 18.0, 60),
    ("TH", "Thailand", 15.0, 101.0, Asia, 7233.0, 210.0, 400),
    ("LA", "Laos", 18.4, 103.8, Asia, 2551.0, 20.0, 15),
    ("KH", "Cambodia", 12.3, 104.9, Asia, 1591.0, 23.0, 50),
    ("VN", "Vietnam", 16.0, 107.8, Asia, 3694.0, 70.0, 350),
    ("MY", "Malaysia", 3.8, 102.2, Asia, 11371.0, 95.0, 260),
    ("SG", "Singapore", 1.35, 103.8, Asia, 72794.0, 245.0, 420),
    ("ID", "Indonesia", -2.5, 118.0, Asia, 4292.0, 23.0, 1600),
    ("BN", "Brunei", 4.5, 114.7, Asia, 31723.0, 70.0, 10),
    ("PH", "Philippines", 12.9, 121.8, Asia, 3549.0, 48.0, 450),
    ("TL", "Timor-Leste", -8.9, 125.7, Asia, 1517.0, 6.0, 4),
    ("CN", "China", 35.9, 104.2, Asia, 12556.0, 135.0, 1200),
    ("HK", "Hong Kong", 22.3, 114.2, Asia, 49800.0, 230.0, 1050),
    ("MO", "Macao", 22.2, 113.5, Asia, 43874.0, 140.0, 8),
    ("TW", "Taiwan", 23.7, 121.0, Asia, 33059.0, 135.0, 300),
    ("JP", "Japan", 36.2, 138.3, Asia, 39313.0, 150.0, 1100),
    ("KR", "South Korea", 36.5, 127.9, Asia, 34758.0, 210.0, 1150),
    ("KP", "North Korea", 40.3, 127.5, Asia, 640.0, 2.0, 1),
    ("MN", "Mongolia", 46.9, 103.8, Asia, 4566.0, 35.0, 35),
    ("KZ", "Kazakhstan", 48.0, 66.9, Asia, 10041.0, 45.0, 160),
    ("KG", "Kyrgyzstan", 41.2, 74.8, Asia, 1276.0, 30.0, 60),
    ("TJ", "Tajikistan", 38.9, 71.3, Asia, 897.0, 10.0, 20),
    ("UZ", "Uzbekistan", 41.4, 64.6, Asia, 1983.0, 28.0, 80),
    ("TM", "Turkmenistan", 38.9, 59.6, Asia, 7612.0, 4.0, 4),
    // --- Oceania ---
    (
        "AU",
        "Australia",
        -25.3,
        133.8,
        Oceania,
        60443.0,
        58.0,
        2500
    ),
    (
        "NZ",
        "New Zealand",
        -41.8,
        172.8,
        Oceania,
        48781.0,
        125.0,
        650
    ),
    (
        "PG",
        "Papua New Guinea",
        -6.5,
        144.2,
        Oceania,
        2916.0,
        7.0,
        20
    ),
    ("FJ", "Fiji", -17.8, 178.0, Oceania, 4647.0, 22.0, 10),
    (
        "SB",
        "Solomon Islands",
        -9.6,
        160.2,
        Oceania,
        2305.0,
        5.0,
        4
    ),
    ("VU", "Vanuatu", -15.4, 166.9, Oceania, 3073.0, 8.0, 5),
    (
        "NC",
        "New Caledonia",
        -21.3,
        165.6,
        Oceania,
        37160.0,
        60.0,
        6
    ),
    (
        "PF",
        "French Polynesia",
        -17.7,
        -149.4,
        Oceania,
        19915.0,
        35.0,
        6
    ),
    ("WS", "Samoa", -13.8, -172.1, Oceania, 4068.0, 10.0, 4),
    ("TO", "Tonga", -21.2, -175.2, Oceania, 4426.0, 12.0, 4),
    ("GU", "Guam", 13.4, 144.8, Oceania, 35905.0, 80.0, 8),
    (
        "MP",
        "Northern Mariana Islands",
        15.2,
        145.7,
        Oceania,
        20659.0,
        50.0,
        3
    ),
    (
        "AS",
        "American Samoa",
        -14.3,
        -170.7,
        Oceania,
        15743.0,
        30.0,
        3
    ),
    ("FM", "Micronesia", 6.9, 158.2, Oceania, 3571.0, 6.0, 3),
    (
        "MH",
        "Marshall Islands",
        7.1,
        171.2,
        Oceania,
        4337.0,
        8.0,
        3
    ),
    ("PW", "Palau", 7.5, 134.6, Oceania, 13772.0, 18.0, 3),
    (
        "CK",
        "Cook Islands",
        -21.2,
        -159.8,
        Oceania,
        21603.0,
        15.0,
        2
    ),
    // --- remainder: excluded/rare territories to reach BrightData's span ---
    ("SH", "Saint Helena", -15.9, -5.7, Africa, 7800.0, 3.0, 1),
    (
        "FK",
        "Falkland Islands",
        -51.8,
        -59.5,
        SouthAmerica,
        70800.0,
        10.0,
        2
    ),
    ("NU", "Niue", -19.1, -169.9, Oceania, 15586.0, 8.0, 1),
    ("TK", "Tokelau", -9.2, -171.8, Oceania, 6275.0, 4.0, 1),
    (
        "WF",
        "Wallis and Futuna",
        -13.3,
        -176.2,
        Oceania,
        12640.0,
        6.0,
        1
    ),
    (
        "PM",
        "Saint Pierre and Miquelon",
        46.9,
        -56.3,
        NorthAmerica,
        34900.0,
        20.0,
        1
    ),
    ("KI", "Kiribati", 1.9, -157.4, Oceania, 1765.0, 4.0, 2),
    ("NR", "Nauru", -0.5, 166.9, Oceania, 10125.0, 6.0, 1),
    ("TV", "Tuvalu", -7.1, 177.6, Oceania, 5370.0, 5.0, 1),
    (
        "MS",
        "Montserrat",
        16.7,
        -62.2,
        NorthAmerica,
        13890.0,
        25.0,
        2
    ),
    ("VA", "Vatican City", 41.9, 12.5, Europe, 80000.0, 100.0, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_has_no_duplicate_isos() {
        let mut seen = HashSet::new();
        for c in all_countries() {
            assert!(seen.insert(c.iso), "duplicate iso {}", c.iso);
        }
    }

    #[test]
    fn table_covers_the_papers_span() {
        // BrightData reached 224 countries/territories after exclusions;
        // our table must offer at least that many non-excluded entries.
        let excluded: HashSet<&str> = EXCLUDED_COUNTRIES.iter().copied().collect();
        let usable = all_countries()
            .iter()
            .filter(|c| !excluded.contains(c.iso))
            .count();
        assert!(usable >= 224, "only {usable} usable countries");
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(country("us").unwrap().name, "United States");
        assert_eq!(country("US").unwrap().name, "United States");
        assert!(country("ZZ").is_none());
    }

    #[test]
    fn named_countries_from_the_paper_exist() {
        // Countries named in the paper's narrative must be present.
        for iso in [
            "US", "CA", "GB", "IN", "JP", "KR", "SG", "DE", "NL", "FR", "AU", // super proxies
            "IE", "BR", "SE", "IT", // ground truth
            "TD", "BM", "ID", "SD", "SN", "CN",
        ] {
            assert!(country(iso).is_some(), "missing {iso}");
        }
    }

    #[test]
    fn income_groups_match_thresholds() {
        assert_eq!(country("TD").unwrap().income_group(), IncomeGroup::Low);
        assert_eq!(
            country("IN").unwrap().income_group(),
            IncomeGroup::LowerMiddle
        );
        assert_eq!(
            country("BR").unwrap().income_group(),
            IncomeGroup::UpperMiddle
        );
        assert_eq!(country("US").unwrap().income_group(), IncomeGroup::High);
    }

    #[test]
    fn fast_internet_threshold() {
        assert!(country("US").unwrap().has_fast_internet());
        assert!(!country("TD").unwrap().has_fast_internet());
        assert!(!country("ID").unwrap().has_fast_internet()); // 23 Mbps < 25
    }

    #[test]
    fn coordinates_are_valid() {
        for c in all_countries() {
            assert!((-90.0..=90.0).contains(&c.lat), "{} lat", c.iso);
            assert!((-180.0..=180.0).contains(&c.lon), "{} lon", c.iso);
            assert!(c.gdp_per_capita > 0.0);
            assert!(c.bandwidth_mbps > 0.0);
            assert!(c.as_count >= 1);
        }
    }

    #[test]
    fn super_proxy_countries_exist() {
        for iso in SUPER_PROXY_COUNTRIES {
            let c = country(iso).unwrap();
            // All Super Proxy locations except India are high-income.
            if iso != "IN" {
                assert_eq!(c.income_group(), IncomeGroup::High, "{iso}");
            }
        }
    }

    #[test]
    fn profiles_reflect_covariates() {
        let chad = country("TD").unwrap().residential_profile();
        let us = country("US").unwrap().residential_profile();
        assert!(chad.last_mile_median_ms > us.last_mile_median_ms);
        assert!(chad.path_inflation > us.path_inflation);
    }

    #[test]
    fn regions_are_plausible() {
        assert_eq!(country("NG").unwrap().region, Region::Africa);
        assert_eq!(country("BR").unwrap().region, Region::SouthAmerica);
        assert_eq!(country("JP").unwrap().region, Region::Asia);
        assert_eq!(country("DE").unwrap().region, Region::Europe);
        assert_eq!(country("AU").unwrap().region, Region::Oceania);
        assert_eq!(country("MX").unwrap().region, Region::NorthAmerica);
    }

    #[test]
    fn iso_bytes_roundtrip() {
        assert_eq!(country("US").unwrap().iso_bytes(), *b"US");
    }
}
