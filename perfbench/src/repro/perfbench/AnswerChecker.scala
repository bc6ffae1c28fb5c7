package repro.perfbench

import scala.collection.mutable
import repro.core.{ExactCSAG, Sea}

/** The whole graph as the checker sees it: adjacency plus raw (not yet
  * normalised) attributes, indexed `0 until n`.
  */
final class Mirror(val ids: Array[Long], val adj: Array[Array[Int]],
                   val text: Array[Set[String]], val num: Array[Array[Double]]) {
  val n: Int = ids.length
  val index: Map[Long, Int] = ids.zipWithIndex.toMap

  private val dims = if (n == 0) 0 else num.map(_.length).max
  private val lo = Array.tabulate(dims)(d => num.map(_(d)).min)
  private val range = Array.tabulate(dims)(d => math.max(num.map(_(d)).max - lo(d), 1e-12))

  /** γ·Jaccard distance of the text sets + (1−γ)·mean |Δ| of the min-max
    * normalised numbers.
    */
  def distance(i: Int, j: Int, gamma: Double): Double = {
    val union = (text(i) | text(j)).size
    val jac = if (union == 0) 0.0 else 1.0 - (text(i) & text(j)).size.toDouble / union
    val man = if (dims == 0) 0.0
      else (0 until dims).map(d => math.abs(num(i)(d) - num(j)(d)) / range(d)).sum / dims
    gamma * jac + (1 - gamma) * man
  }
}

object Mirror {
  def apply(nodes: Seq[(Long, Seq[String], Seq[Double])], edges: Seq[(Long, Long)]): Mirror = {
    val ids = nodes.map(_._1).toArray
    val index = ids.zipWithIndex.toMap
    val adj = Array.fill(ids.length)(mutable.Set.empty[Int])
    for ((a, b) <- edges if a != b) {
      adj(index(a)) += index(b)
      adj(index(b)) += index(a)
    }
    new Mirror(ids, adj.map(_.toArray.sorted), nodes.map(_._2.toSet).toArray,
      nodes.map(_._3.toArray).toArray)
  }
}

/** Checks every answer of SEA and Exact from the mirror alone — it shares no
  * code with the program's cohesion models, distances or metrics. Each check
  * returns the names of the rules the answer breaks; empty means correct.
  *
  * `truss` selects the k-truss model: a community's node set must be spanned
  * by a connected k-truss of its induced subgraph (every kept edge in ≥ k−2
  * triangles inside the community), as the program's truss answers are.
  */
final class AnswerChecker(m: Mirror, k: Int, truss: Boolean, gamma: Double,
                          eps: Double, beta: Double, e: Double, maxRounds: Int) {
  import AnswerChecker._

  private val minNodes = if (truss) k else k + 1

  /** Edges (as adjacency sets) of the maximal k-truss / k-core of the nodes
    * in `within`.
    */
  private def cohesive(within: Set[Int]): Map[Int, Set[Int]] = {
    val nbr = within.iterator.map(u => u -> mutable.Set(m.adj(u).filter(within): _*)).toMap
    if (truss) {
      var changed = true
      while (changed) {
        val weak = for {
          (u, nu) <- nbr.toSeq; v <- nu.toSeq if u < v && (nu & nbr(v)).size < k - 2
        } yield (u, v)
        weak.foreach { case (u, v) => nbr(u) -= v; nbr(v) -= u }
        changed = weak.nonEmpty
      }
      nbr.collect { case (u, nu) if nu.nonEmpty => u -> nu.toSet }
    } else {
      val alive = mutable.Set(within.toSeq: _*)
      var changed = true
      while (changed) {
        val low = alive.filter(u => nbr(u).count(alive) < k)
        alive --= low
        changed = low.nonEmpty
      }
      alive.iterator.map(u => u -> nbr(u).filter(alive).toSet).toMap
    }
  }

  private def component(from: Int, edges: Int => Iterable[Int]): Set[Int] = {
    val seen = mutable.Set(from)
    val queue = mutable.Queue(from)
    while (queue.nonEmpty) edges(queue.dequeue()).foreach(v => if (seen.add(v)) queue += v)
    seen.toSet
  }

  private lazy val whole = cohesive((0 until m.n).toSet)

  def delta(q: Int, h: Set[Int]): Double = {
    val others = h - q
    if (others.isEmpty) 0.0 else others.iterator.map(m.distance(_, q, gamma)).sum / others.size
  }

  /** Whether node `qId` lies in the whole graph's k-core / k-truss. */
  def inMaximal(qId: Long): Boolean = m.index.get(qId).exists(whole.contains)

  /** δ of q's maximal connected k-core / k-truss in the whole graph. */
  def maximalDelta(q: Int): Double =
    if (!whole.contains(q)) Double.NaN
    else delta(q, component(q, whole.getOrElse(_, Set.empty)))

  /** Theorem 10's |G_q| bound, ⌈(2/ε²)·ln(m(n−m)/β)⌉+1 capped at n. */
  def hoeffdingGq: Long =
    if (minNodes >= m.n) m.n.toLong
    else math.min(math.ceil(2 / (eps * eps) *
      math.log(minNodes.toDouble * (m.n - minNodes) / beta)).toLong + 1, m.n.toLong)

  def reachable(q: Int): Int = component(q, m.adj(_)).size

  /** Rules every community answer meets; `h` in graph ids. */
  def community(qId: Long, h: Set[Long], reportedDelta: Double): Seq[String] = {
    val q = m.index(qId)
    val hs = h.flatMap(m.index.get)
    val out = mutable.ArrayBuffer.empty[String]
    if (!hs.contains(q)) out += QInH
    val core = cohesive(hs)
    if (hs.size != h.size || core.keySet != hs) out += Cohesion
    // A k-core community must be connected; a k-truss one through its truss edges.
    val links: Int => Iterable[Int] =
      if (truss) core.getOrElse(_, Set.empty) else m.adj(_).filter(hs)
    if (hs.isEmpty || component(hs.head, links) != hs) out += Connected
    if (!(math.abs(delta(q, hs) - reportedDelta) <= 1e-9)) out += Delta
    out.toSeq
  }

  def sea(qId: Long, r: Sea.Result): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String] ++ community(qId, r.community, r.deltaStar)
    if (r.gqSize != math.min(hoeffdingGq, reachable(m.index(qId)).toLong)) out += GqSize
    if (r.sampleSize > r.gqSize) out += Sample
    if (r.rounds.size > maxRounds) out += Rounds
    if (r.converged && !(r.moe <= r.deltaStar * e / (1 + e))) out += Theorem11
    out.toSeq
  }

  /** `sea` is SEA's answer on the same query node, if it has one. */
  def exact(qId: Long, r: ExactCSAG.Result, sea: Option[Sea.Result]): Seq[String] = {
    val q = m.index(qId)
    val out = mutable.ArrayBuffer.empty[String] ++ community(qId, r.community, r.delta)
    val d = delta(q, r.community.flatMap(m.index.get))
    if (!(d <= maximalDelta(q) + 1e-9)) out += NotBelowMaximal
    for (s <- sea if !r.capped && s.community.nonEmpty)
      if (!(d <= delta(q, s.community.flatMap(m.index.get)) + 1e-9)) out += AboveSea
    out.toSeq
  }
}

object AnswerChecker {
  val QInH = "q-in-H"
  val Cohesion = "cohesion"
  val Connected = "connected"
  val Delta = "delta-matches"
  val NotBelowMaximal = "exact-delta-le-maximal"
  val AboveSea = "exact-delta-le-sea"
  val GqSize = "gq-size-theorem10"
  val Sample = "sample-le-gq"
  val Rounds = "rounds-le-max"
  val Theorem11 = "converged-theorem11"
}
