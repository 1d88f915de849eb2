//! The three workloads and the inputs generated for them.
//!
//! Each workload is a dataset stand-in from `nulpa_graph::datasets` plus a
//! stream of edge batches drawn from the seed given on the command line.
//! The generator writes three files; the measuring process sees only
//! those:
//!
//! * `graph.txt` — the edge list `nulpa generate` writes and `nulpa
//!   detect` reads;
//! * `graph.bin` — the same CSR in the binary format, the reference the
//!   loaded CSR is compared against;
//! * `batches.txt` — the edge batches, one `+ u v w` / `- u v` per line,
//!   batches separated by `batch` lines.

use nulpa_core::{apply_batch, EdgeBatch};
use nulpa_graph::datasets::{spec_by_name, DatasetSpec};
use nulpa_graph::io::{write_binary, write_edge_list};
use nulpa_graph::{Csr, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `kmer_V1r` stand-in: chains with D≈2, all-ties uniform weights;
    /// the native sweep runs all 20 iterations.
    Kmer,
    /// `uk-2002` stand-in: heavy-tailed host-structured crawl, ~13 edges
    /// per vertex; loading the text file dominates.
    Web,
    /// `europe_osm` stand-in: a thinned grid with D≈2.1, followed by the
    /// longest batch stream; the dynamic path dominates its rounds.
    RoadStream,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [Workload::Kmer, Workload::Web, Workload::RoadStream];

impl Workload {
    /// Parse a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kmer => "kmer",
            Workload::Web => "web",
            Workload::RoadStream => "road-stream",
        }
    }

    /// The dataset stand-in the graph is generated from.
    fn spec(self) -> DatasetSpec {
        let name = match self {
            Workload::Kmer => "kmer_V1r",
            Workload::Web => "uk-2002",
            Workload::RoadStream => "europe_osm",
        };
        spec_by_name(name).expect("stand-in is one of the Table 1 specs")
    }

    /// Stand-in scale. `kmer` stays at 0.0003 because at 0.001 its label
    /// reads leave L2 and whole-run medians turned bimodal (README.md).
    pub fn scale(self) -> f64 {
        match self {
            Workload::Kmer => 0.0003,
            Workload::Web => 0.004,
            Workload::RoadStream => 0.002,
        }
    }

    /// Edge batches replayed per round.
    fn batches(self) -> usize {
        match self {
            Workload::Kmer | Workload::Web => 1,
            Workload::RoadStream => 4,
        }
    }
}

/// The workload's graph: the dataset stand-in at `scale`, exactly as
/// `nulpa generate <name> --scale <scale>` writes it. Its generator seed
/// is fixed by the dataset name, so every run times the same graph.
pub fn generate_graph(w: Workload, scale: f64) -> Csr {
    w.spec().generate(scale).graph
}

/// `count` batches, each drawn against the graph as the batches before it
/// left it: random insertions (0.5% of |V|, unit weight, no self loops)
/// and deletions of existing edges (a quarter as many).
pub fn generate_batches(g: &Csr, count: usize, seed: u64) -> Vec<EdgeBatch> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = g.num_vertices();
    let inserts = (n / 200).max(1);
    let deletes = (inserts / 4).max(1);
    let mut cur = g.clone();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut batch = EdgeBatch::default();
        while batch.insertions.len() < inserts {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                batch.insertions.push((u as VertexId, v as VertexId, 1.0));
            }
        }
        if cur.num_edges() > 0 {
            for _ in 0..deletes {
                let e = rng.gen_range(0..cur.num_edges());
                let u = cur.offsets().partition_point(|&o| o <= e) - 1;
                batch.deletions.push((u as VertexId, cur.targets()[e]));
            }
        }
        cur = apply_batch(&cur, &batch);
        out.push(batch);
    }
    out
}

/// Paths of the generated input files inside a work directory.
pub struct InputFiles {
    /// Text edge list (what `nulpa detect` reads).
    pub graph_txt: PathBuf,
    /// Binary CSR of the generated graph (the reference).
    pub graph_bin: PathBuf,
    /// Edge batches.
    pub batches: PathBuf,
}

impl InputFiles {
    /// The input file paths under `dir`.
    pub fn in_dir(dir: &Path) -> InputFiles {
        InputFiles {
            graph_txt: dir.join("graph.txt"),
            graph_bin: dir.join("graph.bin"),
            batches: dir.join("batches.txt"),
        }
    }
}

/// Generate the workload's inputs and write them into `dir`: the graph
/// at `scale` and the batch stream drawn with `seed`.
pub fn write_inputs(dir: &Path, w: Workload, scale: f64, seed: u64) -> std::io::Result<()> {
    let files = InputFiles::in_dir(dir);
    let g = generate_graph(w, scale);
    let batches = generate_batches(&g, w.batches(), seed);
    let create = |p: &Path| File::create(p).map(BufWriter::new);

    let mut out = create(&files.graph_txt)?;
    write_edge_list(&g, &mut out)?;
    out.flush()?;
    let mut out = create(&files.graph_bin)?;
    write_binary(&g, &mut out)?;
    out.flush()?;
    let mut out = create(&files.batches)?;
    for b in &batches {
        writeln!(out, "batch")?;
        for &(u, v, wt) in &b.insertions {
            writeln!(out, "+ {u} {v} {wt}")?;
        }
        for &(u, v) in &b.deletions {
            writeln!(out, "- {u} {v}")?;
        }
    }
    out.flush()
}

/// Read the batches written by [`write_inputs`], rejecting ids outside
/// `0..n`.
pub(crate) fn read_batches(path: &Path, n: usize) -> Result<Vec<EdgeBatch>, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: Vec<EdgeBatch> = Vec::new();
    for (i, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let bad = || format!("{}:{}: bad batch line `{line}`", path.display(), i + 1);
        let mut tok = line.split_whitespace();
        let kind = tok.next().ok_or_else(bad)?;
        if kind == "batch" {
            out.push(EdgeBatch::default());
            continue;
        }
        let mut id = || -> Result<VertexId, String> {
            let v: VertexId = tok.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            if (v as usize) < n {
                Ok(v)
            } else {
                Err(bad())
            }
        };
        let (u, v) = (id()?, id()?);
        let batch = out.last_mut().ok_or_else(bad)?;
        match kind {
            "+" => {
                let w: f32 = tok.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                batch.insertions.push((u, v, w));
            }
            "-" => batch.deletions.push((u, v)),
            _ => return Err(bad()),
        }
    }
    Ok(out)
}
