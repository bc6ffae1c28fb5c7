package repro.perfbench

import repro.core.{ExactCSAG, Sea}

/** The answer checker's own test: on small hand-built graphs it must accept
  * correct answers and reject one deliberately wrong answer per rule.
  * Every benchmark run executes it before measuring; run it alone with
  * `python3 perfbench/run.py --self-test`.
  */
object CheckerSelfTest {
  import AnswerChecker._

  /** k = 3 core graph: K5 on 0..4, node 5 hangs on 0 and 1, and a separate
    * K4 on 6..9. Node 4 shares q's attributes, 1..3 drift away from them.
    */
  private val coreGraph = Mirror(
    Seq(0L -> Seq("a", "b"), 1L -> Seq("a"), 2L -> Seq("a"), 3L -> Seq("a"),
      4L -> Seq("a", "b"), 5L -> Seq("z"), 6L -> Seq("a", "b"), 7L -> Seq("a", "b"),
      8L -> Seq("a", "b"), 9L -> Seq("a", "b"))
      .zip(Seq(0.0, 0.5, 0.6, 0.7, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
      .map { case ((id, t), x) => (id, t, Seq(x)) },
    clique(0 to 4) ++ Seq(5L -> 0L, 5L -> 1L) ++ clique(6 to 9))

  /** k = 4 truss graph: K4 on 0..3, node 4 on a single triangle with 0 and
    * 1, and a second K4 on 5..8 tied to the first by the lone edge 3–5.
    */
  private val trussGraph = Mirror(
    (0L to 8L).map(id => (id, Seq("t" + id % 2), Seq(id.toDouble))),
    clique(0 to 3) ++ Seq(4L -> 0L, 4L -> 1L, 3L -> 5L) ++ clique(5 to 8))

  private def clique(r: Range): Seq[(Long, Long)] =
    for (a <- r; b <- r if a < b) yield (a.toLong, b.toLong)

  /** `(case, rule the case must break or "" for none, rules reported)` */
  def cases(): Seq[(String, String, Seq[String])] = {
    val ck = new AnswerChecker(coreGraph, k = 3, truss = false, gamma = 0.5,
      eps = 0.2, beta = 0.05, e = 0.02, maxRounds = 5)
    val best = Set(0L, 1L, 2L, 4L)
    def d(h: Set[Long]) = ck.delta(0, h.map(_.toInt))
    def sea(h: Set[Long] = best, delta: Double = Double.NaN, gq: Long = 6, sample: Long = 6,
            rounds: Int = 2, converged: Boolean = false, moe: Double = 0.5) =
      Sea.Result(h, if (delta.isNaN) d(h) else delta, moe, converged,
        Seq.tabulate(rounds)(i => Sea.Round(i + 1, d(h), moe, 0L, 1.0)), gq, sample, 1.0)
    def exact(h: Set[Long], capped: Boolean = false) =
      ExactCSAG.Result(h, d(h), 10L, capped, 1.0)
    val bound = d(best) * 0.02 / 1.02
    val tk = new AnswerChecker(trussGraph, k = 4, truss = true, gamma = 0.5,
      eps = 0.2, beta = 0.05, e = 0.02, maxRounds = 5)
    def truss(h: Set[Long]) = tk.community(0L, h, tk.delta(0, h.map(_.toInt)))
    Seq(
      ("correct SEA answer", "", ck.sea(0L, sea())),
      ("correct Exact answer", "", ck.exact(0L, exact(best), Some(sea()))),
      ("converged within Theorem 11", "", ck.sea(0L, sea(converged = true, moe = bound * 0.9))),
      ("q missing", QInH, ck.sea(0L, sea(h = Set(6L, 7L, 8L, 9L)))),
      ("node of degree 2", Cohesion, ck.sea(0L, sea(h = best + 5L))),
      ("two components", Connected, ck.sea(0L, sea(h = best ++ Set(6L, 7L, 8L, 9L)))),
      ("reported δ off by 1e-6", Delta, ck.sea(0L, sea(delta = d(best) + 1e-6))),
      ("Exact worse than the maximal core", NotBelowMaximal,
        ck.exact(0L, exact(Set(0L, 1L, 2L, 3L), capped = true), Some(sea()))),
      ("uncapped Exact worse than SEA", AboveSea,
        ck.exact(0L, exact(Set(0L, 1L, 3L, 4L)), Some(sea()))),
      ("capped Exact may be worse than SEA", "",
        ck.exact(0L, exact(Set(0L, 1L, 3L, 4L), capped = true), Some(sea()))),
      ("|G_q| not Theorem 10's", GqSize, ck.sea(0L, sea(gq = 7, sample = 6))),
      ("sample larger than G_q", Sample, ck.sea(0L, sea(sample = 7))),
      ("too many rounds", Rounds, ck.sea(0L, sea(rounds = 6))),
      ("converged outside Theorem 11", Theorem11,
        ck.sea(0L, sea(converged = true, moe = bound * 1.1))),
      ("correct k-truss", "", truss(Set(0L, 1L, 2L, 3L))),
      ("edge in one triangle", Cohesion, truss(Set(0L, 1L, 2L, 3L, 4L))),
      ("trusses joined by a bare edge", Connected, truss((0L to 3L).toSet ++ (5L to 8L))),
    )
  }

  /** Descriptions of the cases the checker got wrong. */
  def failures(): Seq[String] = cases().collect {
    case (name, "", got) if got.nonEmpty => s"$name: rejected as ${got.mkString(",")}"
    case (name, rule, got) if rule.nonEmpty && !got.contains(rule) =>
      s"$name: expected $rule, got ${got.mkString(",")}"
  }

  def main(args: Array[String]): Unit = {
    val bad = failures()
    bad.foreach(f => Console.err.println("FAIL " + f))
    println(s"""{"cases": ${cases().size}, "failed": ${bad.size}}""")
    sys.exit(if (bad.isEmpty) 0 else 1)
  }
}
