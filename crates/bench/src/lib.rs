//! # lrgcn-bench — experiment harness for the LayerGCN reproduction
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the full
//! index). This library holds the tiny CLI/layout helpers those binaries
//! share.

use lrgcn::data::{Dataset, SplitRatios, SyntheticConfig};
use std::collections::HashMap;

/// Minimal `--key value` / `--flag` argument parser (no external deps).
pub struct Args {
    kv: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`, treating `--key value` as a pair when the
    /// next token does not start with `--`, else as a boolean flag.
    pub fn from_env() -> Args {
        Self::from_tokens(std::env::args().skip(1))
    }

    pub fn from_tokens(items: impl IntoIterator<Item = String>) -> Args {
        let tokens: Vec<String> = items.into_iter().collect();
        let mut kv = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    kv.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
                flags.push(key.to_string());
            }
            i += 1;
        }
        Args { kv, flags }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }

    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.kv.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("could not parse --{key} {v}")),
            None => default,
        }
    }

    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// Standard experiment knobs shared by all binaries.
pub struct ExpConfig {
    pub seed: u64,
    /// Uniform scale-down of the dataset presets (1.0 = the calibrated
    /// laptop-scale presets of `lrgcn-data`).
    pub scale: f64,
    pub max_epochs: usize,
    pub patience: usize,
    pub verbose: bool,
}

impl ExpConfig {
    /// Parses the common `--seed/--scale/--epochs/--patience/--verbose`
    /// arguments with experiment-specific defaults.
    pub fn parse(args: &Args, default_epochs: usize) -> ExpConfig {
        ExpConfig {
            seed: args.get_parsed("seed", 2023u64),
            scale: args.get_parsed("scale", 1.0f64),
            max_epochs: args.get_parsed("epochs", default_epochs),
            patience: args.get_parsed("patience", 10usize),
            verbose: args.has_flag("verbose"),
        }
    }

    /// Materializes a preset at the configured scale into a split dataset.
    pub fn dataset(&self, preset: &str) -> Dataset {
        let cfg = SyntheticConfig::by_name(preset)
            .unwrap_or_else(|| panic!("unknown dataset preset {preset:?}"))
            .scaled(self.scale);
        let log = cfg.generate(self.seed);
        Dataset::chronological_split(preset, &log, SplitRatios::default())
    }

    /// The dataset presets selected by `--datasets a,b,c` (default: all 4).
    pub fn datasets(args: &Args) -> Vec<String> {
        match args.get("datasets") {
            Some(spec) => spec.split(',').map(|s| s.trim().to_string()).collect(),
            None => vec!["mooc".into(), "games".into(), "food".into(), "yelp".into()],
        }
    }
}

/// Prints a horizontal rule sized for a table of `width` characters.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a metric to the paper's 4-decimal convention.
pub fn fmt4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args("--seed 7 --verbose --scale 0.5");
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get_parsed("scale", 1.0f64), 0.5);
        assert_eq!(a.get_parsed("epochs", 42usize), 42);
    }

    #[test]
    fn exp_config_builds_datasets() {
        let a = args("--scale 0.1 --epochs 3");
        let cfg = ExpConfig::parse(&a, 60);
        assert_eq!(cfg.max_epochs, 3);
        let ds = cfg.dataset("games");
        assert!(ds.n_users() > 0 && ds.n_items() > 0);
        assert!(ds.train().n_edges() > 0);
    }

    #[test]
    fn dataset_list_parsing() {
        let a = args("--datasets mooc,yelp");
        assert_eq!(ExpConfig::datasets(&a), vec!["mooc", "yelp"]);
        let a2 = args("");
        assert_eq!(ExpConfig::datasets(&a2).len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown dataset preset")]
    fn unknown_preset_panics() {
        let cfg = ExpConfig::parse(&args(""), 1);
        let _ = cfg.dataset("bogus");
    }
}
