//! The two workloads. Each calls the program only through public APIs
//! and wraps every call in a span of the traced run.

use crate::harness::{timed, Checks, Cx, UnitFacts, Workload};
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::world::{linker_config, Inputs};
use darklight_core::batch::{budget_overhead_bytes, budget_per_candidate_bytes};
use darklight_core::dataset::Dataset;
use darklight_core::linker::{AliasMatch, Linker};
use darklight_core::FitArtifact;
use darklight_corpus::io::load_corpus;
use darklight_corpus::model::Corpus;
use darklight_govern::{EstimateBytes, MemoryBudget};
use darklight_obs::PipelineMetrics;
use darklight_store::EpochStore;
use std::collections::HashMap;
use std::path::Path;

/// The batch memory budget admits this share of the known pool per batch.
const BATCH_SHARE: usize = 4;

/// Work counts the traced run reports for the dataset layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct DatasetFacts {
    /// Distinct word and char n-grams, summed over records.
    pub terms: u64,
    pub bytes_estimated: u64,
}

impl DatasetFacts {
    fn of<'a>(datasets: impl IntoIterator<Item = &'a Dataset>) -> DatasetFacts {
        let mut f = DatasetFacts::default();
        for ds in datasets {
            f.bytes_estimated += ds.estimate_bytes();
            for r in &ds.records {
                f.terms += (r.counted.word_counts().len() + r.counted.char_counts().len()) as u64;
            }
        }
        f
    }
}

/// Dataset-layer facts and the store's footprint, for the traced run.
pub trait LayerFacts: Workload {
    fn dataset_facts(&self, state: &Self::State) -> DatasetFacts;

    fn artifact_bytes(&self, _state: &Self::State) -> u64 {
        0
    }
}

fn load(tracer: &Tracer, path: &Path, unit: u64) -> Result<Corpus, String> {
    tracer
        .time("corpus.read", unit, || load_corpus(path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A linker for the set-up or, in a traced run, the traced units.
fn linker(inputs: &Inputs, metrics: PipelineMetrics) -> Linker {
    Linker::new(linker_config(inputs.seed)).with_metrics(metrics)
}

fn digest_match(d: &mut Digest, m: &AliasMatch) {
    d.str(&m.unknown_alias);
    d.str(&m.known_alias);
    d.u64(m.score.to_bits());
}

/// Raw posts in `raw` behind the given aliases.
fn raw_posts<'a>(raw: &Corpus, aliases: impl IntoIterator<Item = &'a str>) -> usize {
    aliases
        .into_iter()
        .filter_map(|a| raw.user(a))
        .map(|u| u.posts.len())
        .sum()
}

/// Records of `ds` with the given aliases, in that order.
fn select(ds: &Dataset, aliases: &[String], name: &str) -> Result<Dataset, String> {
    let records = aliases
        .iter()
        .map(|a| {
            ds.index_of(a)
                .map(|i| ds.records[i].clone())
                .ok_or_else(|| format!("alias {a} did not survive refinement"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (w, c) = ds.ngram_orders();
    Ok(Dataset::with_orders(name, records, w, c))
}

/// Exactly one best match per unknown, in `unknowns` order.
fn one_match_each<'m>(
    matches: &'m [AliasMatch],
    unknowns: &[String],
) -> Result<Vec<&'m AliasMatch>, String> {
    let by_alias: HashMap<&str, &AliasMatch> = matches
        .iter()
        .map(|m| (m.unknown_alias.as_str(), m))
        .collect();
    if matches.len() != unknowns.len() || by_alias.len() != unknowns.len() {
        return Err(format!(
            "{} matches for {} unknowns",
            matches.len(),
            unknowns.len()
        ));
    }
    unknowns
        .iter()
        .map(|u| {
            by_alias
                .get(u.as_str())
                .copied()
                .ok_or_else(|| format!("no best match for unknown {u}"))
        })
        .collect()
}

// ----------------------------------------------------------------- batch

/// `batch`: governed batched links (`Linker::try_link_datasets` under a
/// memory budget, with a checkpoint) of small seeded sets of unknowns
/// against the whole known pool, one job per set.
#[derive(Debug)]
pub struct Batch<'a> {
    inputs: &'a Inputs,
}

impl<'a> Batch<'a> {
    pub fn new(inputs: &'a Inputs) -> Batch<'a> {
        Batch { inputs }
    }
}

#[derive(Debug)]
pub struct Job {
    unknowns: Dataset,
    budget: MemoryBudget,
    /// Raw posts behind the known pool and the job's unknowns.
    linked_posts: usize,
}

#[derive(Debug)]
pub struct BatchState {
    known: Dataset,
    unknown: Dataset,
    jobs: Vec<Job>,
}

impl Workload for Batch<'_> {
    type State = BatchState;
    type Output = Vec<AliasMatch>;

    fn setup(&self, cx: &Cx, rep: u64) -> Result<BatchState, String> {
        let linker = linker(self.inputs, cx.metrics.clone());
        let known_raw = load(&cx.tracer, &self.inputs.known(), rep)?;
        let unknown_raw = load(&cx.tracer, &self.inputs.unknown(), rep)?;
        let known = cx
            .tracer
            .time("linker.prepare", rep, || linker.prepare(&known_raw));
        let unknown = cx
            .tracer
            .time("linker.prepare", rep, || linker.prepare(&unknown_raw));
        // The budget admits a share of the known pool per batch, on top of
        // the job's unknowns.
        let share = (known.len() / BATCH_SHARE).max(1) as u64;
        let per_candidate = budget_per_candidate_bytes(&known);
        let known_posts = raw_posts(&known_raw, known.records.iter().map(|r| r.alias.as_str()));
        let jobs = self
            .inputs
            .jobs
            .iter()
            .map(|aliases| {
                let unknowns = select(&unknown, aliases, "batch")?;
                let budget = MemoryBudget::from_bytes(
                    budget_overhead_bytes(&unknowns) + share * per_candidate,
                )
                .map_err(|e| e.to_string())?;
                let posts = raw_posts(&unknown_raw, aliases.iter().map(String::as_str));
                Ok(Job {
                    unknowns,
                    budget,
                    linked_posts: known_posts + posts,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(BatchState {
            known,
            unknown,
            jobs,
        })
    }

    fn distinct(&self, state: &BatchState) -> usize {
        state.jobs.len()
    }

    fn unit(
        &self,
        state: &BatchState,
        key: usize,
        i: usize,
        traced: bool,
        cx: &Cx,
    ) -> Result<(Vec<AliasMatch>, f64), String> {
        let job = &state.jobs[key];
        let dir = cx.fresh_dir(&format!("checkpoint-{i}"))?;
        let mut config = linker_config(self.inputs.seed);
        config.two_stage.govern.budget = Some(job.budget);
        config.checkpoint = Some(dir.join("batch.ckpt"));
        let linker = Linker::new(config).with_metrics(cx.metrics_for(traced));
        let (result, secs) = timed(|| {
            cx.spans(traced).time("linker.link", i as u64, || {
                linker.try_link_datasets(&state.known, &job.unknowns)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        Ok((result.map_err(|e| e.to_string())?, secs))
    }

    fn check(
        &self,
        state: &BatchState,
        key: usize,
        out: &Vec<AliasMatch>,
    ) -> Result<UnitFacts, String> {
        let job = &state.jobs[key];
        let mut d = Digest::new();
        for m in one_match_each(out, &self.inputs.jobs[key])? {
            digest_match(&mut d, m);
        }
        Ok(UnitFacts {
            digest: d.finish(),
            posts: job.linked_posts,
            aliases: job.unknowns.len(),
        })
    }

    fn finish(
        &self,
        state: &BatchState,
        firsts: &[&Vec<AliasMatch>],
        _: &Cx,
        _: &mut Checks,
    ) -> Result<f64, String> {
        let matches: Vec<AliasMatch> = firsts.iter().flat_map(|m| m.iter().cloned()).collect();
        let pool: Vec<String> = state
            .known
            .records
            .iter()
            .map(|r| r.alias.clone())
            .collect();
        Ok(self.inputs.pr_auc(&matches, &pool))
    }
}

impl LayerFacts for Batch<'_> {
    fn dataset_facts(&self, state: &BatchState) -> DatasetFacts {
        DatasetFacts::of([&state.known, &state.unknown])
    }
}

// ----------------------------------------------------------------- serve

/// `serve`: one closed-loop client sends raw unknown users, one per
/// query, through `Linker::link_with_artifact` against a fitted artifact
/// restored from an `EpochStore`.
#[derive(Debug)]
pub struct Serve<'a> {
    inputs: &'a Inputs,
    /// One single-user raw corpus per distinct query, in seeded order.
    queries: Vec<Corpus>,
}

impl<'a> Serve<'a> {
    /// Reads the query users; this is the client's input, not set-up.
    pub fn new(inputs: &'a Inputs) -> Result<Serve<'a>, String> {
        let unknown = load_corpus(&inputs.unknown()).map_err(|e| e.to_string())?;
        let queries = inputs
            .queries
            .iter()
            .map(|a| {
                let user = unknown
                    .user(a)
                    .ok_or_else(|| format!("query {a} not in inputs"))?;
                Ok(Corpus {
                    name: unknown.name.clone(),
                    users: vec![user.clone()],
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Serve { inputs, queries })
    }
}

#[derive(Debug)]
pub struct ServeState {
    artifact: FitArtifact,
    /// Raw posts behind the known pool the artifact holds.
    known_posts: usize,
    artifact_bytes: u64,
    plain: Linker,
    traced: Linker,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for Serve<'_> {
    type State = ServeState;
    type Output = Vec<AliasMatch>;

    fn setup(&self, cx: &Cx, rep: u64) -> Result<ServeState, String> {
        let traced = linker(self.inputs, cx.metrics.clone());
        let known_raw = load(&cx.tracer, &self.inputs.known(), rep)?;
        let fitted = cx.tracer.time("linker.fit_artifact", rep, || {
            traced.fit_artifact(&known_raw)
        });
        let dir = cx.fresh_dir(&format!("store-{rep}"))?;
        let store = EpochStore::new(&dir).with_metrics(cx.metrics.clone());
        cx.tracer
            .time("store.save", rep, || fitted.save(&store))
            .map_err(|e| e.to_string())?;
        drop(fitted);
        let (artifact, _epoch) = cx
            .tracer
            .time("store.load", rep, || FitArtifact::load(&store, 1))
            .map_err(|e| e.to_string())?;
        let known = artifact.known.records.iter().map(|r| r.alias.as_str());
        Ok(ServeState {
            known_posts: raw_posts(&known_raw, known),
            artifact,
            artifact_bytes: dir_bytes(&dir),
            plain: linker(self.inputs, PipelineMetrics::disabled()),
            traced,
        })
    }

    fn distinct(&self, _: &ServeState) -> usize {
        self.queries.len()
    }

    fn unit(
        &self,
        state: &ServeState,
        key: usize,
        i: usize,
        traced: bool,
        cx: &Cx,
    ) -> Result<(Vec<AliasMatch>, f64), String> {
        let linker = if traced { &state.traced } else { &state.plain };
        let query = &self.queries[key];
        Ok(timed(|| {
            cx.spans(traced).time("linker.link", i as u64, || {
                linker.link_with_artifact(&state.artifact, query)
            })
        }))
    }

    fn check(
        &self,
        state: &ServeState,
        key: usize,
        out: &Vec<AliasMatch>,
    ) -> Result<UnitFacts, String> {
        let query = &self.queries[key];
        let mut d = Digest::new();
        for m in one_match_each(out, &self.inputs.queries[key..=key])? {
            digest_match(&mut d, m);
        }
        Ok(UnitFacts {
            digest: d.finish(),
            posts: state.known_posts + query.total_posts(),
            aliases: 1,
        })
    }

    /// Served answers must equal, bit for bit, a fit-every-time
    /// `Linker::link_datasets` over the same known dataset.
    fn finish(
        &self,
        state: &ServeState,
        firsts: &[&Vec<AliasMatch>],
        _: &Cx,
        checks: &mut Checks,
    ) -> Result<f64, String> {
        let all = Corpus {
            name: self.queries[0].name.clone(),
            users: self.queries.iter().flat_map(|q| q.users.clone()).collect(),
        };
        let unknown = state.plain.prepare(&all);
        let reference = state
            .plain
            .try_link_datasets(&state.artifact.known, &unknown)
            .map_err(|e| e.to_string())?;
        let reference: HashMap<&str, &AliasMatch> = reference
            .iter()
            .map(|m| (m.unknown_alias.as_str(), m))
            .collect();
        let served: Vec<AliasMatch> = firsts.iter().flat_map(|m| m.iter().cloned()).collect();
        for m in &served {
            checks.record(match reference.get(m.unknown_alias.as_str()) {
                Some(r)
                    if r.known_alias == m.known_alias && r.score.to_bits() == m.score.to_bits() =>
                {
                    Ok(())
                }
                other => Err(format!(
                    "served answer for {} is {} {:e}; fit-every-time gives {:?}",
                    m.unknown_alias,
                    m.known_alias,
                    m.score,
                    other.map(|r| (&r.known_alias, r.score))
                )),
            });
        }
        let pool: Vec<String> = state
            .artifact
            .known
            .records
            .iter()
            .map(|r| r.alias.clone())
            .collect();
        Ok(self.inputs.pr_auc(&served, &pool))
    }
}

impl LayerFacts for Serve<'_> {
    fn dataset_facts(&self, state: &ServeState) -> DatasetFacts {
        DatasetFacts::of([&state.artifact.known])
    }

    fn artifact_bytes(&self, state: &ServeState) -> u64 {
        state.artifact_bytes
    }
}
