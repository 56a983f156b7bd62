//! Seeded inputs. `generate` writes a `mixed` scenario-matrix world as
//! TSV files, and the benchmark process reads only those files back.
//!
//! The world is the `mixed` cell of `darklight_synth::matrix`, which turns
//! every generator dial (drift, imitators, code-switching, sparse
//! histories), with its population cut to [`POPULATION`] of the `s`
//! scale so that a run fits the benchmark's time budget at one thread.

use darklight_core::linker::{AliasMatch, Linker, LinkerConfig};
use darklight_core::twostage::TwoStageConfig;
use darklight_corpus::io::save_corpus;
use darklight_corpus::model::Corpus;
use darklight_eval::curve::PrCurve;
use darklight_eval::metrics::LabeledScore;
use darklight_synth::matrix::{CellSpec, MatrixScale, ScenarioKind};
use darklight_synth::scenario::{ScenarioBuilder, ScenarioConfig};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Share of the `s` cell's rich and cross-persona population generated.
pub const POPULATION: f64 = 0.25;
/// Distinct serve queries: surviving unknown users in seeded order.
pub const QUERIES: usize = 40;
/// Distinct batch jobs, each linking this many surviving unknown users:
/// one cross persona and the rest resident distractors.
pub const BATCH_JOBS: usize = 3;
pub const JOB_UNKNOWNS: usize = 4;

const KNOWN: &str = "known.tsv";
const UNKNOWN: &str = "unknown.tsv";
const TRUTH: &str = "truth.tsv";
const QUERIES_FILE: &str = "queries.txt";
const BATCH_FILE: &str = "batch.txt";
const SEED_FILE: &str = "seed";

/// The matrix cell the world is drawn from.
pub fn cell(seed: u64) -> CellSpec {
    CellSpec {
        kind: ScenarioKind::Mixed,
        scale: MatrixScale::Small,
        seed,
    }
}

/// The generator config: the cell's config at [`POPULATION`].
pub fn world_config(seed: u64) -> ScenarioConfig {
    let mut cfg = cell(seed).config();
    let scale = |n: usize| (n as f64 * POPULATION).round() as usize;
    cfg.tmg_users = scale(cfg.tmg_users);
    cfg.dm_users = scale(cfg.dm_users);
    cfg
}

/// Every linker the benchmark builds: the cell's refinement, threshold 0
/// (every unknown yields its best match) and exactly one thread, so the
/// `DARKLIGHT_THREADS` environment variable has no effect.
pub fn linker_config(seed: u64) -> LinkerConfig {
    LinkerConfig {
        refine: cell(seed).refine_config(),
        two_stage: TwoStageConfig {
            threads: 1,
            threshold: 0.0,
            ..TwoStageConfig::default()
        },
        ..LinkerConfig::default()
    }
}

/// SplitMix64: the seeded order of queries and batch unknowns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Writes a forum without its ground truth: the program sees aliases
/// and posts only, and the persona ids go to `truth.tsv`.
fn save_unlabeled(corpus: &Corpus, path: &Path) -> Result<(), String> {
    let mut c = corpus.clone();
    for u in &mut c.users {
        u.persona = None;
    }
    save_corpus(&c, path).map_err(io_err(path))
}

/// Generates the inputs for `seed` into `out`.
pub fn generate(seed: u64, out: &Path) -> Result<(), String> {
    let world = ScenarioBuilder::new(world_config(seed)).build();
    fs::create_dir_all(out).map_err(io_err(out))?;
    save_unlabeled(&world.tmg, &out.join(KNOWN))?;
    save_unlabeled(&world.dm, &out.join(UNKNOWN))?;

    let mut truth = String::new();
    for u in world.tmg.users.iter().chain(&world.dm.users) {
        if let Some(p) = u.persona {
            truth.push_str(&format!("{}\t{p}\n", u.alias));
        }
    }
    fs::write(out.join(TRUTH), truth).map_err(io_err(out))?;

    // Serve queries and batch unknowns: unknown users in seeded order that
    // survive polishing and refinement on their own, so each yields a
    // best match at threshold 0. Each batch job holds one cross persona
    // (its true author is in the known forum) and resident distractors
    // (it is not), so every job does comparable work.
    let linker = Linker::new(linker_config(seed));
    let known_personas: HashSet<u64> = world.tmg.users.iter().filter_map(|u| u.persona).collect();
    let mut order: Vec<usize> = (0..world.dm.users.len()).collect();
    let mut rng = SplitMix(seed);
    rng.shuffle(&mut order);
    let distractors_wanted = BATCH_JOBS * (JOB_UNKNOWNS - 1);
    let mut survivors: Vec<&str> = Vec::new();
    let (mut cross, mut distractors): (Vec<&str>, Vec<&str>) = (Vec::new(), Vec::new());
    for i in order {
        if survivors.len() >= QUERIES
            && cross.len() >= BATCH_JOBS
            && distractors.len() >= distractors_wanted
        {
            break;
        }
        let user = &world.dm.users[i];
        let alone = Corpus {
            name: world.dm.name.clone(),
            users: vec![user.clone()],
        };
        if linker.prepare(&alone).len() != 1 {
            continue;
        }
        survivors.push(&user.alias);
        if user.persona.is_some_and(|p| known_personas.contains(&p)) {
            cross.push(&user.alias);
        } else {
            distractors.push(&user.alias);
        }
    }
    if survivors.len() < QUERIES
        || cross.len() < BATCH_JOBS
        || distractors.len() < distractors_wanted
    {
        return Err(format!(
            "seed {seed}: {} unknown users survive refinement on their own, \
             {} of them cross personas",
            survivors.len(),
            cross.len()
        ));
    }
    let jobs: Vec<String> = (0..BATCH_JOBS)
        .map(|j| {
            let per = JOB_UNKNOWNS - 1;
            let mut job = vec![cross[j]];
            job.extend_from_slice(&distractors[j * per..(j + 1) * per]);
            rng.shuffle(&mut job);
            job.join("\t")
        })
        .collect();
    let queries = survivors[..QUERIES].join("\n") + "\n";
    fs::write(out.join(QUERIES_FILE), queries).map_err(io_err(out))?;
    fs::write(out.join(BATCH_FILE), jobs.join("\n") + "\n").map_err(io_err(out))?;
    // Written last: its presence marks a complete input directory.
    fs::write(out.join(SEED_FILE), format!("{seed}\n")).map_err(io_err(out))
}

/// Generated inputs, read back by the benchmark process.
#[derive(Debug)]
pub struct Inputs {
    pub dir: PathBuf,
    pub seed: u64,
    /// alias → persona id, for both forums.
    pub truth: HashMap<String, u64>,
    pub queries: Vec<String>,
    /// The unknown aliases of each batch job.
    pub jobs: Vec<Vec<String>>,
}

impl Inputs {
    pub fn load(dir: &Path) -> Result<Inputs, String> {
        let read = |name: &str| fs::read_to_string(dir.join(name)).map_err(io_err(dir));
        let seed = read(SEED_FILE)?
            .trim()
            .parse()
            .map_err(|e| format!("{}: bad seed file: {e}", dir.display()))?;
        let mut truth = HashMap::new();
        for line in read(TRUTH)?.lines() {
            let (alias, persona) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad truth line {line:?}"))?;
            let persona = persona
                .parse()
                .map_err(|e| format!("bad truth line {line:?}: {e}"))?;
            truth.insert(alias.to_string(), persona);
        }
        let list = |name: &str| -> Result<Vec<String>, String> {
            Ok(read(name)?.lines().map(str::to_string).collect())
        };
        Ok(Inputs {
            dir: dir.to_path_buf(),
            seed,
            truth,
            queries: list(QUERIES_FILE)?,
            jobs: list(BATCH_FILE)?
                .iter()
                .map(|l| l.split('\t').map(str::to_string).collect())
                .collect(),
        })
    }

    pub fn known(&self) -> PathBuf {
        self.dir.join(KNOWN)
    }

    pub fn unknown(&self) -> PathBuf {
        self.dir.join(UNKNOWN)
    }

    /// Area under the precision-recall curve of each unknown's best match
    /// against ground truth. An unknown has a true author when its
    /// persona is among `pool`, the personas of the known aliases it was
    /// linked against.
    pub fn pr_auc(&self, matches: &[AliasMatch], pool: &[String]) -> f64 {
        let pool: HashSet<u64> = pool
            .iter()
            .filter_map(|a| self.truth.get(a))
            .copied()
            .collect();
        let labeled: Vec<LabeledScore> = matches
            .iter()
            .map(|m| {
                let truth = self.truth.get(&m.unknown_alias);
                LabeledScore {
                    score: m.score,
                    correct: truth.is_some() && truth == self.truth.get(&m.known_alias),
                    has_truth: truth.is_some_and(|p| pool.contains(p)),
                }
            })
            .collect();
        PrCurve::from_labeled(&labeled).auc()
    }
}
