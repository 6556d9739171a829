//! Embedded world-city table.
//!
//! Used to place DoH provider points of presence: Cloudflare's 146 observed
//! PoPs, NextDNS's 107, Google's 26 and Quad9's fleet are drawn from these
//! cities by the `dohperf-providers` crate. Coordinates are approximate
//! city centres.

use dohperf_netsim::topology::GeoPoint;

/// One city record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// ISO alpha-2 country code.
    pub country: &'static str,
    /// Latitude.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
}

impl City {
    /// Position as a geographic point.
    pub fn position(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }
}

/// All cities.
pub fn cities() -> &'static [City] {
    CITIES
}

/// Cities in a given country.
pub fn cities_in(iso: &str) -> impl Iterator<Item = &'static City> + '_ {
    CITIES
        .iter()
        .filter(move |c| c.country.eq_ignore_ascii_case(iso))
}

macro_rules! city_rows {
    ($( ($name:literal, $cc:literal, $lat:expr, $lon:expr) ),+ $(,)?) => {
        &[$( City { name: $name, country: $cc, lat: $lat, lon: $lon } ),+]
    };
}

static CITIES: &[City] = city_rows![
    // North America
    ("New York", "US", 40.71, -74.01),
    ("Los Angeles", "US", 34.05, -118.24),
    ("Chicago", "US", 41.88, -87.63),
    ("Dallas", "US", 32.78, -96.80),
    ("Miami", "US", 25.76, -80.19),
    ("Seattle", "US", 47.61, -122.33),
    ("San Jose", "US", 37.34, -121.89),
    ("Ashburn", "US", 39.04, -77.49),
    ("Atlanta", "US", 33.75, -84.39),
    ("Denver", "US", 39.74, -104.99),
    ("Phoenix", "US", 33.45, -112.07),
    ("Boston", "US", 42.36, -71.06),
    ("Houston", "US", 29.76, -95.37),
    ("Minneapolis", "US", 44.98, -93.27),
    ("Kansas City", "US", 39.10, -94.58),
    ("Salt Lake City", "US", 40.76, -111.89),
    ("Portland", "US", 45.52, -122.68),
    ("Columbus", "US", 39.96, -83.00),
    ("Toronto", "CA", 43.65, -79.38),
    ("Montreal", "CA", 45.50, -73.57),
    ("Vancouver", "CA", 49.28, -123.12),
    ("Calgary", "CA", 51.05, -114.07),
    ("Mexico City", "MX", 19.43, -99.13),
    ("Queretaro", "MX", 20.59, -100.39),
    ("Guatemala City", "GT", 14.63, -90.51),
    ("San Jose CR", "CR", 9.93, -84.08),
    ("Panama City", "PA", 8.98, -79.52),
    ("Kingston", "JM", 18.02, -76.80),
    ("Santo Domingo", "DO", 18.49, -69.93),
    ("San Juan", "PR", 18.47, -66.11),
    ("Hamilton", "BM", 32.29, -64.78),
    ("Port of Spain", "TT", 10.65, -61.51),
    ("Willemstad", "CW", 12.11, -68.93),
    // South America
    ("Sao Paulo", "BR", -23.55, -46.63),
    ("Rio de Janeiro", "BR", -22.91, -43.17),
    ("Fortaleza", "BR", -3.73, -38.52),
    ("Porto Alegre", "BR", -30.03, -51.23),
    ("Brasilia", "BR", -15.79, -47.88),
    ("Curitiba", "BR", -25.43, -49.27),
    ("Buenos Aires", "AR", -34.60, -58.38),
    ("Cordoba", "AR", -31.42, -64.18),
    ("Santiago", "CL", -33.45, -70.67),
    ("Bogota", "CO", 4.71, -74.07),
    ("Medellin", "CO", 6.24, -75.58),
    ("Lima", "PE", -12.05, -77.04),
    ("Quito", "EC", -0.18, -78.47),
    ("Caracas", "VE", 10.48, -66.90),
    ("La Paz", "BO", -16.50, -68.15),
    ("Asuncion", "PY", -25.26, -57.58),
    ("Montevideo", "UY", -34.90, -56.16),
    ("Georgetown", "GY", 6.80, -58.16),
    // Europe
    ("London", "GB", 51.51, -0.13),
    ("Manchester", "GB", 53.48, -2.24),
    ("Dublin", "IE", 53.35, -6.26),
    ("Paris", "FR", 48.86, 2.35),
    ("Marseille", "FR", 43.30, 5.37),
    ("Frankfurt", "DE", 50.11, 8.68),
    ("Berlin", "DE", 52.52, 13.40),
    ("Munich", "DE", 48.14, 11.58),
    ("Hamburg", "DE", 53.55, 9.99),
    ("Dusseldorf", "DE", 51.23, 6.78),
    ("Amsterdam", "NL", 52.37, 4.90),
    ("Brussels", "BE", 50.85, 4.35),
    ("Luxembourg City", "LU", 49.61, 6.13),
    ("Zurich", "CH", 47.37, 8.54),
    ("Geneva", "CH", 46.20, 6.14),
    ("Vienna", "AT", 48.21, 16.37),
    ("Madrid", "ES", 40.42, -3.70),
    ("Barcelona", "ES", 41.39, 2.17),
    ("Lisbon", "PT", 38.72, -9.14),
    ("Milan", "IT", 45.46, 9.19),
    ("Rome", "IT", 41.90, 12.50),
    ("Palermo", "IT", 38.12, 13.36),
    ("Athens", "GR", 37.98, 23.73),
    ("Nicosia", "CY", 35.19, 33.38),
    ("Valletta", "MT", 35.90, 14.51),
    ("Stockholm", "SE", 59.33, 18.06),
    ("Gothenburg", "SE", 57.71, 11.97),
    ("Oslo", "NO", 59.91, 10.75),
    ("Copenhagen", "DK", 55.68, 12.57),
    ("Helsinki", "FI", 60.17, 24.94),
    ("Reykjavik", "IS", 64.15, -21.94),
    ("Tallinn", "EE", 59.44, 24.75),
    ("Riga", "LV", 56.95, 24.11),
    ("Vilnius", "LT", 54.69, 25.28),
    ("Warsaw", "PL", 52.23, 21.01),
    ("Prague", "CZ", 50.08, 14.44),
    ("Bratislava", "SK", 48.15, 17.11),
    ("Budapest", "HU", 47.50, 19.04),
    ("Ljubljana", "SI", 46.06, 14.51),
    ("Zagreb", "HR", 45.81, 15.98),
    ("Belgrade", "RS", 44.79, 20.45),
    ("Sarajevo", "BA", 43.86, 18.41),
    ("Skopje", "MK", 42.00, 21.43),
    ("Tirana", "AL", 41.33, 19.82),
    ("Sofia", "BG", 42.70, 23.32),
    ("Bucharest", "RO", 44.43, 26.10),
    ("Chisinau", "MD", 47.01, 28.86),
    ("Kyiv", "UA", 50.45, 30.52),
    ("Minsk", "BY", 53.90, 27.57),
    ("Moscow", "RU", 55.76, 37.62),
    ("Saint Petersburg", "RU", 59.93, 30.34),
    ("Yekaterinburg", "RU", 56.84, 60.60),
    ("Novosibirsk", "RU", 55.03, 82.92),
    // Africa
    ("Cairo", "EG", 30.04, 31.24),
    ("Alexandria", "EG", 31.20, 29.92),
    ("Tunis", "TN", 36.81, 10.18),
    ("Algiers", "DZ", 36.74, 3.09),
    ("Casablanca", "MA", 33.57, -7.59),
    ("Dakar", "SN", 14.72, -17.47),
    ("Lagos", "NG", 6.52, 3.38),
    ("Abuja", "NG", 9.06, 7.50),
    ("Accra", "GH", 5.60, -0.19),
    ("Abidjan", "CI", 5.36, -4.01),
    ("Lome", "TG", 6.13, 1.22),
    ("Douala", "CM", 4.05, 9.70),
    ("Kinshasa", "CD", -4.44, 15.27),
    ("Luanda", "AO", -8.84, 13.23),
    ("Nairobi", "KE", -1.29, 36.82),
    ("Mombasa", "KE", -4.04, 39.67),
    ("Kampala", "UG", 0.35, 32.58),
    ("Dar es Salaam", "TZ", -6.79, 39.21),
    ("Kigali", "RW", -1.94, 30.06),
    ("Addis Ababa", "ET", 9.02, 38.75),
    ("Djibouti City", "DJ", 11.59, 43.15),
    ("Khartoum", "SD", 15.50, 32.56),
    ("Lusaka", "ZM", -15.39, 28.32),
    ("Harare", "ZW", -17.83, 31.05),
    ("Gaborone", "BW", -24.65, 25.91),
    ("Windhoek", "NA", -22.56, 17.08),
    ("Johannesburg", "ZA", -26.20, 28.05),
    ("Cape Town", "ZA", -33.93, 18.42),
    ("Durban", "ZA", -29.86, 31.03),
    ("Maputo", "MZ", -25.97, 32.58),
    ("Antananarivo", "MG", -18.88, 47.51),
    ("Port Louis", "MU", -20.16, 57.50),
    ("Saint-Denis", "RE", -20.88, 55.45),
    ("Ouagadougou", "BF", 12.37, -1.53),
    ("Bamako", "ML", 12.64, -8.00),
    ("Niamey", "NE", 13.51, 2.13),
    ("N'Djamena", "TD", 12.13, 15.06),
    ("Monrovia", "LR", 6.30, -10.80),
    // Middle East & Central/South Asia
    ("Istanbul", "TR", 41.01, 28.98),
    ("Ankara", "TR", 39.93, 32.86),
    ("Tbilisi", "GE", 41.72, 44.79),
    ("Yerevan", "AM", 40.18, 44.51),
    ("Baku", "AZ", 40.41, 49.87),
    ("Beirut", "LB", 33.89, 35.50),
    ("Tel Aviv", "IL", 32.09, 34.78),
    ("Amman", "JO", 31.96, 35.95),
    ("Baghdad", "IQ", 33.31, 44.37),
    ("Riyadh", "SA", 24.71, 46.68),
    ("Jeddah", "SA", 21.49, 39.19),
    ("Dubai", "AE", 25.20, 55.27),
    ("Abu Dhabi", "AE", 24.45, 54.38),
    ("Doha", "QA", 25.29, 51.53),
    ("Manama", "BH", 26.23, 50.59),
    ("Kuwait City", "KW", 29.38, 47.99),
    ("Muscat", "OM", 23.59, 58.41),
    ("Tehran", "IR", 35.69, 51.39),
    ("Karachi", "PK", 24.86, 67.01),
    ("Lahore", "PK", 31.55, 74.34),
    ("Islamabad", "PK", 33.69, 73.06),
    ("Mumbai", "IN", 19.08, 72.88),
    ("New Delhi", "IN", 28.61, 77.21),
    ("Chennai", "IN", 13.08, 80.27),
    ("Bangalore", "IN", 12.97, 77.59),
    ("Kolkata", "IN", 22.57, 88.36),
    ("Hyderabad", "IN", 17.39, 78.49),
    ("Colombo", "LK", 6.93, 79.85),
    ("Dhaka", "BD", 23.81, 90.41),
    ("Kathmandu", "NP", 27.72, 85.32),
    ("Almaty", "KZ", 43.26, 76.93),
    ("Tashkent", "UZ", 41.30, 69.24),
    ("Bishkek", "KG", 42.87, 74.59),
    // East & Southeast Asia
    ("Tokyo", "JP", 35.68, 139.69),
    ("Osaka", "JP", 34.69, 135.50),
    ("Seoul", "KR", 37.57, 126.98),
    ("Busan", "KR", 35.18, 129.08),
    ("Taipei", "TW", 25.03, 121.57),
    ("Hong Kong", "HK", 22.32, 114.17),
    ("Macau", "MO", 22.20, 113.55),
    ("Shanghai", "CN", 31.23, 121.47),
    ("Beijing", "CN", 39.90, 116.41),
    ("Ulaanbaatar", "MN", 47.89, 106.91),
    ("Hanoi", "VN", 21.03, 105.85),
    ("Ho Chi Minh City", "VN", 10.82, 106.63),
    ("Bangkok", "TH", 13.76, 100.50),
    ("Vientiane", "LA", 17.98, 102.63),
    ("Phnom Penh", "KH", 11.56, 104.92),
    ("Yangon", "MM", 16.87, 96.20),
    ("Kuala Lumpur", "MY", 3.139, 101.69),
    ("Singapore", "SG", 1.35, 103.82),
    ("Jakarta", "ID", -6.21, 106.85),
    ("Surabaya", "ID", -7.26, 112.75),
    ("Manila", "PH", 14.60, 120.98),
    ("Cebu", "PH", 10.32, 123.89),
    ("Bandar Seri Begawan", "BN", 4.94, 114.95),
    // Oceania
    ("Sydney", "AU", -33.87, 151.21),
    ("Melbourne", "AU", -37.81, 144.96),
    ("Brisbane", "AU", -27.47, 153.03),
    ("Perth", "AU", -31.95, 115.86),
    ("Adelaide", "AU", -34.93, 138.60),
    ("Auckland", "NZ", -36.85, 174.76),
    ("Wellington", "NZ", -41.29, 174.78),
    ("Port Moresby", "PG", -9.44, 147.18),
    ("Suva", "FJ", -18.14, 178.44),
    ("Noumea", "NC", -22.26, 166.45),
    ("Papeete", "PF", -17.54, -149.57),
    ("Hagatna", "GU", 13.48, 144.75),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries::country;

    #[test]
    fn every_city_country_exists() {
        for c in cities() {
            assert!(
                country(c.country).is_some(),
                "{} references unknown {}",
                c.name,
                c.country
            );
        }
    }

    #[test]
    fn coordinates_valid() {
        for c in cities() {
            assert!((-90.0..=90.0).contains(&c.lat), "{}", c.name);
            assert!((-180.0..=180.0).contains(&c.lon), "{}", c.name);
        }
    }

    #[test]
    fn enough_cities_for_pop_placement() {
        // Cloudflare's 146 observed PoPs are the largest requirement.
        assert!(cities().len() >= 146, "only {}", cities().len());
    }

    #[test]
    fn cities_in_filters_by_country() {
        let us: Vec<_> = cities_in("US").collect();
        assert!(us.len() >= 10);
        assert!(us.iter().all(|c| c.country == "US"));
        assert_eq!(cities_in("zz").count(), 0);
    }

    #[test]
    fn africa_is_covered() {
        // Quad9's distinguishing feature in Figure 5 is Sub-Saharan
        // coverage; the city table must support it.
        let african = ["SN", "NG", "KE", "ZA", "TZ", "UG", "RW", "AO", "CD"];
        for iso in african {
            assert!(cities_in(iso).count() >= 1, "{iso}");
        }
    }

    #[test]
    fn no_duplicate_city_names() {
        let mut seen = std::collections::HashSet::new();
        for c in cities() {
            assert!(seen.insert(c.name), "duplicate {}", c.name);
        }
    }
}
