//! Inputs shared by the differential tests.

use flap_grammars::GrammarDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Valid documents from the grammar's generator, each followed by
/// three malformed mutations: a truncation, one smashed byte and a
/// junk suffix.
pub fn workload<V>(def: &GrammarDef<V>, seeds: u64) -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let valid = (def.generate)(seed, 600 + 350 * seed as usize);
        let mut truncated = valid.clone();
        truncated.truncate(rng.random_range(0..valid.len().max(1)));
        let mut smashed = valid.clone();
        if !smashed.is_empty() {
            let at = rng.random_range(0..smashed.len());
            smashed[at] = if rng.random_bool(0.5) { 0x01 } else { b'!' };
        }
        let mut suffixed = valid.clone();
        suffixed.extend_from_slice(b" \x02trailing");
        inputs.extend([valid, truncated, smashed, suffixed]);
    }
    inputs
}
