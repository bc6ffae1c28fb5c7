package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import repro.bench.BenchRunner
import repro.core.{AttrDistance, ExactCSAG, Sea}
import repro.eval.Harness
import repro.graph.{CoreDecomposition, MetaPath, TrussDecomposition, TrussModel}
import repro.synthgraph.Datasets

/** One benchmark run: one workload in this JVM, a closed loop with a single
  * client that answers one query node after another with SEA, then Exact,
  * and checks both answers with [[AnswerChecker]].
  *
  * Arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --threads <t> --work-dir <dir>`. The seed draws the warm-up node and
  * seeds SEA; the timed node is the workload's own. The program sees only the
  * generated graph and those nodes. The last line of standard output is the
  * JSON result: the end-to-end metrics, or with `--trace 1` the per-layer
  * ones.
  */
object Main {

  /** A named workload: dataset, cohesion model and the paper-table query
    * settings of `BenchRunner.Params` (k, ε, β, λ, e, α, Exact's state cap).
    */
  final case class Workload(name: String, dataset: String, truss: Boolean,
                            params: BenchRunner.Params) {
    def hetero: Boolean = Datasets.heteroSpecs.contains(dataset)
  }

  val workloads: Seq[Workload] = Seq(
    Workload("lj-core", "livejournal-lite", truss = false, BenchRunner.Params()),
    // Table V's hetero setting: k=5, Exact capped at 2×10⁵ states.
    Workload("imdb-truss", "imdb-lite", truss = true,
      BenchRunner.Params(k = 5, exactCap = 200_000L)),
  )

  /** Draw seed of the timed query nodes, the same in every run: at one node
    * per run, a node drawn from `--seed` would make the run-to-run spread
    * the spread between nodes (18–45 % on latency and δ), not noise.
    */
  val TimedDrawSeed: Long = BenchRunner.Params().seed
  /** Timed query nodes: one round answers each once. */
  val TimedQueries = 1
  /** Untimed SEA calls before timing, on nodes drawn from `--seed`: the
    * first SEA call of a JVM runs about twice as slow as later ones. Exact
    * gets no warm-up call: its first call costs 7–13 s more, and the whole
    * protocol of runs must fit in under an hour.
    */
  val WarmupQueries = 1

  final case class Call(ms: Double, delta: Double, violations: Seq[String],
                        spark: Map[String, Work] = Map.empty)

  final case class Pair(q: Long, sea: Call, exact: Call, seaResult: Option[Sea.Result],
                        exactResult: Option[ExactCSAG.Result], enumMs: Option[Double])

  def main(args: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val code = try {
      val wl = workloads.find(w => opts.get("workload").contains(w.name)).getOrElse(
        throw new IllegalArgumentException(
          s"unknown workload ${opts.get("workload")}; known: ${workloads.map(_.name).mkString(", ")}"))
      println(run(wl, opts("seed").toLong, opts("seconds").toInt, opts("trace") == "1",
        opts("threads").toInt, opts("work-dir"), t0))
      0
    } catch {
      case NonFatal(e) =>
        e.printStackTrace()
        1
    }
    sys.exit(code)
  }

  def run(wl: Workload, seed: Long, seconds: Int, trace: Boolean, threads: Int,
          workDir: String, t0: Long): String = {
    val selfTest = CheckerSelfTest.failures()
    selfTest.foreach(f => Console.err.println("checker self-test: " + f))
    val spark = session(wl.name, threads, workDir)
    Console.err.println(f"set-up spark session: ${(System.nanoTime() - t0) / 1e6}%.0f ms")
    try new Run(spark, wl, seed, seconds, trace, t0, selfTest.isEmpty).result()
    finally spark.stop()
  }

  /** The benchmark's Spark: fixed task threads and shuffle partitions, no UI,
    * scratch files under `workDir`.
    */
  def session(name: String, threads: Int, workDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench-" + name)
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", threads.toLong)
      // as the test suite runs the program: shuffle joins, no broadcasts
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def mean(xs: Iterable[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  private final class Run(spark: SparkSession, wl: Workload, seed: Long, seconds: Int,
                          trace: Boolean, t0: Long, checkerOk: Boolean) {
    private val p = wl.params.copy(seed = seed)
    private val gamma = Datasets.gammaFor(wl.dataset)
    private val tracer = if (trace) Some(SparkTrace.install(spark.sparkContext)) else None
    private val setupMs = mutable.LinkedHashMap.empty[String, Double]

    /** Time a set-up call; its benchmark-issued jobs go to layer `name`. */
    private def setup[A](name: String)(body: => A): A = {
      tracer.foreach(_.span = name)
      val (a, ms) = Harness.timeMs(body)
      tracer.foreach { t => t.drain(); t.span = SparkTrace.Unattributed }
      setupMs(name) = setupMs.getOrElse(name, 0.0) + ms
      Console.err.println(f"set-up $name: $ms%.0f ms")
      a
    }

    // ---- set-up: graph, mirrors, query draw ----------------------------------
    private val gen = setup("SynthGraph") {
      val gen = if (wl.hetero) Datasets.hetero(spark, wl.dataset) else Datasets.homo(spark, wl.dataset)
      gen.graph.nodes.count(); gen.graph.edges.count()
      gen
    }
    private val g = if (!wl.hetero) gen.graph else setup("MetaPath") {
      val proj = MetaPath.project(gen.graph, Datasets.heteroSpecs(wl.dataset).metaPath).cached()
      proj.nodes.count(); proj.edges.count()
      proj
    }
    private val lg = setup("Harness.mirror")(Harness.collectWhole(g))
    private val mirror = setup("perfbench.mirror") {
      val nodes = g.nodes.select("id", "text", "num").collect().toSeq.map { r =>
        (r.getLong(0), Option(r.getSeq[String](1)).getOrElse(Seq.empty),
          Option(r.getSeq[Double](2)).getOrElse(Seq.empty))
      }
      Mirror(nodes, g.edges.select("src", "dst").collect().toSeq.map(r => (r.getLong(0), r.getLong(1))))
    }
    private val seaCfg = BenchRunner.seaConfig(p, gamma, truss = wl.truss)
    private val checker = new AnswerChecker(mirror, p.k, wl.truss, gamma, seaCfg.eps,
      seaCfg.beta, seaCfg.e, seaCfg.maxRounds)

    /** Query draw: BenchRunner's rule (coreness ≥ k, inside an annotated
      * circle, shuffled by the draw seed), kept to nodes of the whole graph's
      * k-core / k-truss so that every query has an answer.
      */
    private def draw(drawSeed: Long, count: Int, except: Seq[Long]): Seq[Long] = {
      val prep = BenchRunner.Prepared(wl.dataset, g, lg, gen.membership, gamma, gen.graph, gen.circles)
      val drawn = BenchRunner.pickQueries(prep, p.copy(queries = 20 * count, seed = drawSeed))
        .filter(q => checker.inMaximal(q) && !except.contains(q)).take(count)
      require(drawn.size == count, s"only ${drawn.size} eligible query nodes")
      drawn
    }
    private val timed = setup("query-draw")(draw(TimedDrawSeed, TimedQueries, Nil))
    private val warmup = setup("query-draw")(draw(seed, WarmupQueries, timed))

    // ---- one query node: SEA, then Exact, both checked ------------------------
    private def call[A](body: => A)(check: A => (Double, Seq[String])): (Call, Option[A]) = {
      val before = tracer.map(_.drain())
      try {
        val (a, ms) = Harness.timeMs(body)
        val spark = tracer.map(t => SparkTrace.diff(t.drain(), before.get)).getOrElse(Map.empty)
        val (delta, violations) = check(a)
        (Call(ms, delta, violations, spark), Some(a))
      } catch {
        case NonFatal(e) =>
          Console.err.println(s"operation failed: $e")
          (Call(Double.NaN, Double.NaN, Seq("exception: " + e)), None)
      }
    }

    private def recomputedDelta(q: Long, h: Set[Long]): Double =
      checker.delta(mirror.index(q), h.flatMap(mirror.index.get))

    /** Exact-Truss as BenchRunner.evalQuery composes it; returns the result
      * and the wall time of its driver-local enumeration.
      */
    private def exactTruss(q: Long): (ExactCSAG.Result, Double) = {
      val (mins, rngs) = AttrDistance.numStats(g)
      val ids = TrussDecomposition.maximalConnectedKTruss(g, q, p.k)
      val local = CoreDecomposition.collectLocal(g, ids, mins, rngs)
      val qi = local.indexOf(q)
      val f = Array.tabulate(local.n)(i => local.pairDistance(i, qi, gamma))
      Harness.timeMs(
        ExactCSAG.run(local, qi, f, new TrussModel(p.k), ExactCSAG.Pruning.All, p.exactCap))
    }

    private def exact(q: Long): (ExactCSAG.Result, Option[Double]) =
      if (wl.truss) { val (r, ms) = exactTruss(q); (r, Some(ms)) }
      else (ExactCSAG.search(g, q, p.k, gamma, ExactCSAG.Pruning.All, p.exactCap), None)

    private def pair(q: Long): Pair = {
      val (sea, seaR) = call(Sea.run(g, q, seaCfg)) { r =>
        (recomputedDelta(q, r.community), checker.sea(q, r))
      }
      val (exact, exR) = call(this.exact(q)) { case (r, _) =>
        (recomputedDelta(q, r.community), checker.exact(q, r, seaR))
      }
      Console.err.println(f"q=$q SEA ${sea.ms}%.0f ms δ=${sea.delta}%.5f | Exact ${exact.ms}%.0f ms δ=${exact.delta}%.5f")
      exact.violations.foreach(v => Console.err.println(s"q=$q Exact: $v"))
      sea.violations.foreach(v => Console.err.println(s"q=$q SEA: $v"))
      Pair(q, sea, exact, seaR, exR.map(_._1), exR.flatMap(_._2))
    }

    warmup.foreach { q =>
      val (_, ms) = Harness.timeMs(Sea.run(g, q, seaCfg))
      Console.err.println(f"warm-up q=$q SEA $ms%.0f ms")
    }

    // ---- timed phase ------------------------------------------------------------
    private val os = ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean]
    private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(_.getCollectionTime).sum
    private val tStart = System.nanoTime()
    private val setupS = (tStart - t0) / 1e9
    private val cpu0 = os.getProcessCpuTime
    private val gc0 = gcMs
    private val busy0 = tracer.map(_.busyMs)
    private val pairs = mutable.ArrayBuffer.empty[Pair]
    while (pairs.isEmpty || (System.nanoTime() - tStart) / 1e9 < seconds)
      pairs += pair(timed(pairs.size % timed.size))
    private val timedS = (System.nanoTime() - tStart) / 1e9
    private val cpuMs = (os.getProcessCpuTime - cpu0) / 1e6
    private val gcMsTimed = (gcMs - gc0).toDouble
    private val tracedLayers = tracer.map(_.drain())
    private val tracerMs = tracer.map(_.busyMs - busy0.get)

    /** Heap still in use after a full collection. */
    private def retainedHeapMb(): Double = {
      val mem = ManagementFactory.getMemoryMXBean
      mem.gc(); mem.gc()
      mem.getHeapMemoryUsage.getUsed / 1048576.0
    }

    private val calls = pairs.toSeq.flatMap(p => Seq(p.sea, p.exact))
    private val failed = calls.count(_.violations.nonEmpty)

    def result(): String = {
      val metrics: Seq[(String, Double, String)] =
        if (trace) perLayer() else endToEnd()
      val ok = checkerOk && metrics.forall(m => !m._2.isNaN && !m._2.isInfinite)
      val body = metrics.map { case (n, v, u) =>
        s""""$n": {"value": ${if (v.isNaN || v.isInfinite) 0.0 else v}, "unit": "$u"}"""
      }.mkString(", ")
      s"""{"correct": $ok, "attempted": ${calls.size}, "failed": $failed, "metrics": {$body}}"""
    }

    private def endToEnd(): Seq[(String, Double, String)] = {
      Seq(
        ("setup_s", setupS, "s"),
        ("queries_per_s", pairs.size / timedS, "1/s"),
        ("sea.query_ms_p50", median(pairs.toSeq.map(_.sea.ms).filterNot(_.isNaN)), "ms"),
        ("exact.query_ms_p50", median(pairs.toSeq.map(_.exact.ms).filterNot(_.isNaN)), "ms"),
        ("sea.answer_delta", mean(pairs.map(_.sea.delta).filterNot(_.isNaN)), "delta"),
        ("exact.answer_delta", mean(pairs.map(_.exact.delta).filterNot(_.isNaN)), "delta"),
        ("retained_heap_mb", retainedHeapMb(), "MB"),
      )
    }

    private def perLayer(): Seq[(String, Double, String)] = {
      val n = pairs.size.toDouble
      def sum(calls: Seq[Call]): Map[String, Work] =
        calls.flatMap(_.spark).groupMapReduce(_._1)(_._2)(_ + _)
      val seaWork = sum(pairs.toSeq.map(_.sea))
      val all = sum(calls)
      def layer(name: String): Work = all.getOrElse(name, Work())
      def sparkMs(w: Map[String, Work]): Double = w.values.map(_.ms).sum
      val seas = pairs.toSeq.flatMap(_.seaResult)
      val exacts = pairs.toSeq.flatMap(_.exactResult)
      // Exact's driver-local time: timed around ExactCSAG.run where the
      // benchmark calls it, else ExactCSAG.search's wall minus its Spark time.
      val enumMs = pairs.toSeq.map(p => p.enumMs.getOrElse(p.exact.ms - sparkMs(p.exact.spark))).sum
      val states = exacts.map(_.states.toDouble).sum

      val queryMs = pairs.map(p => p.sea.ms + p.exact.ms).sum
      val setupJobs = SparkTrace.diff(tracedLayers.get, all)

      Seq(
        ("PriorityBfs.jobs", layer("PriorityBfs").jobs / n, "count"),
        ("PriorityBfs.ms", layer("PriorityBfs").ms / n, "ms"),
        ("Sea.jobs", layer("Sea").jobs / n, "count"),
        ("Sea.ms", layer("Sea").ms / n, "ms"),
        ("Sea.local_ms", (pairs.map(_.sea.ms).sum - sparkMs(seaWork)) / n, "ms"),
        ("Sea.rounds", mean(seas.map(_.rounds.size.toDouble)), "count"),
        ("Sea.gq_nodes", mean(seas.map(_.gqSize.toDouble)), "count"),
        ("Sea.sample_nodes", mean(seas.map(_.sampleSize.toDouble)), "count"),
        ("Sea.converged", mean(seas.map(r => if (r.converged) 1.0 else 0.0)), "count"),
        ("AttrDistance.jobs", layer("AttrDistance").jobs / n, "count"),
        ("AttrDistance.ms", layer("AttrDistance").ms / n, "ms"),
        ("CoreDecomposition.kcore.jobs", layer("CoreDecomposition.kcore").jobs / n, "count"),
        ("CoreDecomposition.component.jobs", layer("CoreDecomposition.component").jobs / n, "count"),
        ("CoreDecomposition.component.ms", layer("CoreDecomposition.component").ms / n, "ms"),
        ("CoreDecomposition.collect.jobs", layer(SparkTrace.CollectLayer).jobs / n, "count"),
        ("CoreDecomposition.collect.ms", layer(SparkTrace.CollectLayer).ms / n, "ms"),
        ("CoreDecomposition.collect.rows", layer(SparkTrace.CollectLayer).rows / n, "count"),
        ("TrussDecomposition.jobs", layer("TrussDecomposition").jobs / n, "count"),
        ("TrussDecomposition.shuffle_mb", layer("TrussDecomposition").shuffleBytes / n / 1e6, "MB"),
        // The whole-graph peel is CoreDecomposition's k-core on a k-core
        // workload and TrussDecomposition's on a k-truss one; one name keeps
        // the time measured (never a constant 0) on both.
        ("peel.ms", (layer("CoreDecomposition.kcore").ms + layer("TrussDecomposition").ms) / n, "ms"),
        ("ExactCSAG.enum_ms", enumMs / n, "ms"),
        ("ExactCSAG.states", states / n, "count"),
        ("ExactCSAG.states_per_s", states / (enumMs / 1000), "1/s"),
        ("ExactCSAG.capped", mean(exacts.map(r => if (r.capped) 1.0 else 0.0)), "count"),
        ("MetaPath.jobs", setupJobs.get("MetaPath").map(_.jobs.toDouble).getOrElse(0.0), "count"),
        ("SynthGraph.ms", setupMs("SynthGraph") + setupMs.getOrElse("MetaPath", 0.0), "ms"),
        ("Harness.mirror_ms", setupMs("Harness.mirror"), "ms"),
        ("spark.jobs", all.values.map(_.jobs).sum / n, "count"),
        ("spark.tasks", all.values.map(_.tasks).sum / n, "count"),
        ("spark.shuffle_mb", all.values.map(_.shuffleBytes).sum / n / 1e6, "MB"),
        ("jvm.cpu_ms", cpuMs / n, "ms"),
        ("jvm.gc_ms", gcMsTimed / n, "ms"),
        ("trace.unattributed_jobs", tracedLayers.get.collect {
          case (l, w) if !SparkTrace.attributed(l) => w.jobs.toDouble }.sum, "count"),
        // Wall time of the traced queries, to set against the untraced runs'
        // sea.query_ms_p50 + exact.query_ms_p50 of the same query node.
        ("trace.query_ms", queryMs / n, "ms"),
        // The listener's own time while the timed queries ran, as a share
        // of their wall time.
        ("trace.overhead_pct", 100 * tracerMs.get / queryMs, "%"),
      )
    }
  }
}
