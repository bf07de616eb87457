//! Seeded LEAD metadata document generator.
//!
//! Documents conform to the Fig-2 schema fixture and are emitted in
//! schema order. Dynamic model-parameter attributes are drawn from a
//! deterministic pool of [`DynamicAttrSpec`]s (ARPS/WRF-style namelist
//! groups) so the same config registers matching definitions in the
//! hybrid catalog via [`DocGenerator::register_defs`].

use catalog::catalog::MetadataCatalog;
use catalog::defs::{DefLevel, DynamicAttrSpec};
use catalog::error::Result;
use catalog::lead::DETAILED_PATH;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlkit::ValueType;

/// Knobs for corpus generation.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed (documents are a pure function of config).
    pub seed: u64,
    /// Theme keyword attributes per document.
    pub themes_per_doc: usize,
    /// `themekey` values per theme.
    pub keys_per_theme: usize,
    /// Distinct `themekey` vocabulary size.
    pub vocab_size: usize,
    /// Dynamic attribute instances per document.
    pub dynamics_per_doc: usize,
    /// Scalar parameters per dynamic attribute.
    pub elems_per_dynamic: usize,
    /// Nesting depth of sub-attributes below each dynamic attribute
    /// (0 = flat).
    pub sub_depth: usize,
    /// Distinct dynamic attribute definitions in the pool.
    pub distinct_dynamics: usize,
    /// Distinct integer values per parameter (uniform); selectivity of
    /// an equality predicate on one parameter ≈ 1/value_cardinality.
    pub value_cardinality: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            themes_per_doc: 3,
            keys_per_theme: 3,
            vocab_size: 64,
            dynamics_per_doc: 3,
            elems_per_dynamic: 5,
            sub_depth: 1,
            distinct_dynamics: 8,
            value_cardinality: 100,
        }
    }
}

/// Names reminiscent of the ARPS/WRF namelist groups the paper cites.
const GROUP_NAMES: &[&str] = &[
    "grid",
    "physics",
    "dynamics",
    "radiation",
    "surface",
    "microphysics",
    "boundary",
    "nudging",
    "assimilation",
    "soil",
    "turbulence",
    "convection",
];
const MODEL_NAMES: &[&str] = &["ARPS", "WRF", "COAMPS", "RAMS"];
const CF_TERMS: &[&str] = &[
    "air_pressure",
    "air_temperature",
    "convective_precipitation",
    "relative_humidity",
    "wind_speed",
    "cloud_base",
    "cloud_top",
    "surface_flux",
    "soil_moisture",
    "radar_reflectivity",
];

/// Deterministic corpus generator.
pub struct DocGenerator {
    cfg: WorkloadConfig,
    specs: Vec<DynamicAttrSpec>,
}

impl DocGenerator {
    /// Build the generator and its dynamic-definition pool.
    pub fn new(cfg: WorkloadConfig) -> DocGenerator {
        let mut specs = Vec::with_capacity(cfg.distinct_dynamics);
        for i in 0..cfg.distinct_dynamics {
            let group = GROUP_NAMES[i % GROUP_NAMES.len()];
            let model = MODEL_NAMES[(i / GROUP_NAMES.len()) % MODEL_NAMES.len()];
            let name = if i < GROUP_NAMES.len() * MODEL_NAMES.len() {
                group.to_string()
            } else {
                format!("{group}-{}", i)
            };
            let mut spec = DynamicAttrSpec::new(name, model);
            for p in 0..cfg.elems_per_dynamic {
                spec = spec.element(format!("p{p}"), ValueType::Float);
            }
            // Nested sub-attribute chain: sub0 { sub1 { ... } }, each
            // level carrying one parameter.
            if cfg.sub_depth > 0 {
                let chain = Self::sub_chain(model, cfg.sub_depth, 0);
                spec = spec.sub(chain);
            }
            specs.push(spec);
        }
        DocGenerator { cfg, specs }
    }

    fn sub_chain(source: &str, depth: usize, level: usize) -> DynamicAttrSpec {
        let mut s = DynamicAttrSpec::new(format!("sub{level}"), source.to_string())
            .element(format!("v{level}"), ValueType::Float);
        if level + 1 < depth {
            s = s.sub(Self::sub_chain(source, depth, level + 1));
        }
        s
    }

    /// The dynamic definition pool (deterministic for a given config).
    pub fn specs(&self) -> &[DynamicAttrSpec] {
        &self.specs
    }

    /// Register the pool into a hybrid catalog.
    pub fn register_defs(&self, cat: &MetadataCatalog) -> Result<()> {
        for spec in &self.specs {
            cat.register_dynamic(DETAILED_PATH, spec, DefLevel::Admin)?;
        }
        Ok(())
    }

    /// Build a LEAD catalog with exactly this generator's definitions
    /// registered (use instead of `lead_catalog`, whose pre-registered
    /// ARPS `grid` definition would collide with the pool).
    pub fn catalog(&self, config: catalog::catalog::CatalogConfig) -> Result<MetadataCatalog> {
        let cat = MetadataCatalog::new(catalog::lead::lead_partition(), config)?;
        self.register_defs(&cat)?;
        Ok(cat)
    }

    /// Generate document number `i` (same `i` → same document).
    pub fn generate(&self, i: usize) -> String {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut out = String::with_capacity(2048);
        out.push_str("<LEADresource>");
        out.push_str(&format!("<resourceID>run-{i:06}</resourceID>"));
        out.push_str("<data><idinfo>");
        // status
        let progress = ["planned", "running", "complete"][rng.gen_range(0..3)];
        out.push_str(&format!(
            "<status><progress>{progress}</progress><update>{}</update></status>",
            ["hourly", "daily"][rng.gen_range(0..2)]
        ));
        // citation
        out.push_str(&format!(
            "<citation><origin>scientist-{}</origin><pubdate>2006-{:02}-{:02}</pubdate>\
             <title>forecast run {i}</title></citation>",
            rng.gen_range(0..16),
            rng.gen_range(1..13),
            rng.gen_range(1..29),
        ));
        // timeperd/timeinfo
        out.push_str(&format!(
            "<timeperd><timeinfo><current>2006-{:02}-{:02}</current></timeinfo></timeperd>",
            rng.gen_range(1..13),
            rng.gen_range(1..29)
        ));
        // keywords
        out.push_str("<keywords>");
        for _ in 0..cfg.themes_per_doc {
            out.push_str("<theme><themekt>CF NetCDF</themekt>");
            for _ in 0..cfg.keys_per_theme {
                let term = CF_TERMS[rng.gen_range(0..CF_TERMS.len())];
                let idx = rng.gen_range(0..cfg.vocab_size);
                out.push_str(&format!("<themekey>{term}_{idx}</themekey>"));
            }
            out.push_str("</theme>");
        }
        out.push_str("</keywords>");
        if rng.gen_bool(0.5) {
            out.push_str("<useconst>none</useconst>");
        }
        out.push_str("</idinfo><geospatial>");
        // bounding box
        let w = rng.gen_range(-110.0..-90.0f64);
        let s = rng.gen_range(30.0..40.0f64);
        out.push_str(&format!(
            "<spdom><bounding><westbc>{:.2}</westbc><eastbc>{:.2}</eastbc>\
             <northbc>{:.2}</northbc><southbc>{:.2}</southbc></bounding></spdom>",
            w,
            w + 10.0,
            s + 8.0,
            s
        ));
        if rng.gen_bool(0.3) {
            out.push_str("<vertdom><vmin>0</vmin><vmax>20000</vmax></vertdom>");
        }
        // dynamic attributes
        out.push_str("<eainfo>");
        for d in 0..cfg.dynamics_per_doc {
            let spec = &self.specs[(i + d) % self.specs.len()];
            self.emit_dynamic(&mut out, spec, &mut rng);
        }
        out.push_str("</eainfo></geospatial></data></LEADresource>");
        out
    }

    fn emit_dynamic(&self, out: &mut String, spec: &DynamicAttrSpec, rng: &mut StdRng) {
        out.push_str("<detailed>");
        out.push_str(&format!(
            "<enttyp><enttypl>{}</enttypl><enttypds>{}</enttypds></enttyp>",
            spec.name, spec.source
        ));
        self.emit_dynamic_children(out, spec, rng);
        out.push_str("</detailed>");
    }

    fn emit_dynamic_children(&self, out: &mut String, spec: &DynamicAttrSpec, rng: &mut StdRng) {
        for (name, _) in &spec.elements {
            let v = rng.gen_range(0..self.cfg.value_cardinality);
            out.push_str(&format!(
                "<attr><attrlabl>{name}</attrlabl><attrdefs>{}</attrdefs><attrv>{v}</attrv></attr>",
                spec.source
            ));
        }
        for sub in &spec.subs {
            out.push_str(&format!(
                "<attr><attrlabl>{}</attrlabl><attrdefs>{}</attrdefs>",
                sub.name, sub.source
            ));
            self.emit_dynamic_children(out, sub, rng);
            out.push_str("</attr>");
        }
    }

    /// Generate a corpus of `n` documents.
    pub fn corpus(&self, n: usize) -> Vec<String> {
        (0..n).map(|i| self.generate(i)).collect()
    }

    /// The generator's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::catalog::CatalogConfig;
    use xmlkit::Document;

    #[test]
    fn documents_are_deterministic() {
        let g1 = DocGenerator::new(WorkloadConfig::default());
        let g2 = DocGenerator::new(WorkloadConfig::default());
        assert_eq!(g1.generate(7), g2.generate(7));
        assert_ne!(g1.generate(7), g1.generate(8));
    }

    #[test]
    fn documents_are_well_formed_and_schema_valid() {
        let g = DocGenerator::new(WorkloadConfig::default());
        let cat = g.catalog(CatalogConfig::default()).unwrap();
        for i in 0..10 {
            let xml = g.generate(i);
            Document::parse(&xml).unwrap();
            let shredded = cat.shred_only(&xml).unwrap();
            assert!(
                shredded.unmatched.is_empty(),
                "doc {i} had unmatched content: {:?}",
                shredded.unmatched
            );
            assert!(!shredded.clob_rows.is_empty());
        }
    }

    #[test]
    fn nesting_depth_respected() {
        let cfg = WorkloadConfig { sub_depth: 3, ..Default::default() };
        let g = DocGenerator::new(cfg);
        let spec = &g.specs()[0];
        let mut depth = 0;
        let mut cur = spec;
        while let Some(sub) = cur.subs.first() {
            depth += 1;
            cur = sub;
        }
        assert_eq!(depth, 3);
        // And the document carries the nested chain.
        let xml = g.generate(0);
        assert!(xml.contains("<attrlabl>sub2</attrlabl>"));
    }

    #[test]
    fn ingests_into_all_shapes() {
        let g = DocGenerator::new(WorkloadConfig { dynamics_per_doc: 2, ..Default::default() });
        let cat = g.catalog(CatalogConfig::default()).unwrap();
        for i in 0..5 {
            cat.ingest(&g.generate(i)).unwrap();
        }
        let stats = cat.stats();
        assert_eq!(stats.objects, 5);
        assert!(stats.elem_rows > 0);
        assert!(stats.ancestor_rows > 0);
    }

    #[test]
    fn roundtrips_through_catalog() {
        let g = DocGenerator::new(WorkloadConfig::default());
        let cat = g.catalog(CatalogConfig::default()).unwrap();
        let xml = g.generate(3);
        let id = cat.ingest(&xml).unwrap();
        let rebuilt = cat.fetch_documents(&[id]).unwrap().remove(0).1;
        let a = Document::parse(&xml).unwrap();
        let b = Document::parse(&rebuilt).unwrap();
        assert_eq!(
            xmlkit::writer::to_string(&a, a.root()),
            xmlkit::writer::to_string(&b, b.root())
        );
    }

    #[test]
    fn distinct_dynamics_pool_size() {
        let g = DocGenerator::new(WorkloadConfig { distinct_dynamics: 20, ..Default::default() });
        assert_eq!(g.specs().len(), 20);
        // all (name, source) pairs distinct
        let mut set = std::collections::HashSet::new();
        for s in g.specs() {
            assert!(set.insert((s.name.clone(), s.source.clone())));
        }
    }
}
