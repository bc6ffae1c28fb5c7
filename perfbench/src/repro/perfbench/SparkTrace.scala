package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.perfbench.Internals
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import scala.collection.mutable

/** Spark work of one layer: jobs, busy time, tasks, shuffle bytes written and
  * (for collects) rows brought to the driver.
  */
final case class Work(jobs: Long = 0, ms: Double = 0, tasks: Long = 0,
                      shuffleBytes: Long = 0, rows: Long = 0) {
  def +(o: Work): Work = Work(jobs + o.jobs, ms + o.ms, tasks + o.tasks,
    shuffleBytes + o.shuffleBytes, rows + o.rows)
  def -(o: Work): Work = Work(jobs - o.jobs, ms - o.ms, tasks - o.tasks,
    shuffleBytes - o.shuffleBytes, rows - o.rows)
}

/** Attributes every Spark job of the process to a program layer.
  *
  * Most jobs of a query are adaptive-execution sub-jobs whose own call site
  * holds no program frame, so a job inherits the layer of its SQL execution
  * (`spark.sql.execution.id`), named by the first `repro.` frame of that
  * execution's call stack; a job outside any SQL execution is named by its
  * own stage call stacks. A layer's time is the wall time of its root SQL
  * executions (start to end event) plus that of its non-SQL jobs. Jobs whose
  * stack holds only benchmark frames go to the benchmark's current `span`.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener {
  import SparkTrace._

  /** Layer of jobs issued by the benchmark itself; written by the main
    * thread only between [[drain]]s.
    */
  @volatile var span: String = Unattributed

  private val execLayer = mutable.Map.empty[Long, String]
  private val execStart = mutable.Map.empty[Long, Long]
  private val jobLayer = mutable.Map.empty[Int, String]
  private val plainJobStart = mutable.Map.empty[Int, Long]
  private val stageLayer = mutable.Map.empty[Int, String]
  private var work = Map.empty[String, Work]
  private var busyNs = 0L

  /** Time spent in this listener's callbacks so far: the tracer's own cost. */
  def busyMs: Double = synchronized(busyNs / 1e6)

  private def timed(body: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    body
    busyNs += System.nanoTime() - t0
  }

  private def add(layer: String, w: Work): Unit =
    work = work.updated(layer, work.getOrElse(layer, Work()) + w)

  /** Wait until all events so far are counted, then copy the counters. */
  def drain(): Map[String, Work] = {
    Internals.drainListenerBus(sc)
    synchronized(work)
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = timed {
    event match {
      case s: SparkListenerSQLExecutionStart =>
        execLayer(s.executionId) = layerOf(s.details, span)
        if (s.rootExecutionId.forall(_ == s.executionId)) execStart(s.executionId) = s.time
      case e: SparkListenerSQLExecutionEnd =>
        for (layer <- execLayer.get(e.executionId); t0 <- execStart.remove(e.executionId))
          add(layer, Work(ms = (e.time - t0).toDouble,
            rows = if (layer == CollectLayer) Internals.outputRows(e) else 0L))
      case _ =>
    }
  }

  override def onJobStart(j: SparkListenerJobStart): Unit = timed {
    val exec = Option(j.properties)
      .flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).map(_.toLong)
    val layer = exec.flatMap(execLayer.get)
      .getOrElse(layerOf(j.stageInfos.map(_.details).mkString("\n"), span))
    jobLayer(j.jobId) = layer
    j.stageIds.foreach(stageLayer(_) = layer)
    if (exec.isEmpty) plainJobStart(j.jobId) = j.time
    add(layer, Work(jobs = 1))
  }

  override def onJobEnd(j: SparkListenerJobEnd): Unit = timed {
    for (t0 <- plainJobStart.remove(j.jobId))
      add(jobLayer(j.jobId), Work(ms = (j.time - t0).toDouble))
  }

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = timed {
    val bytes = Option(t.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    add(stageLayer.getOrElse(t.stageId, Unattributed), Work(tasks = 1, shuffleBytes = bytes))
  }
}

object SparkTrace {
  val Unattributed = "unattributed"
  val CollectLayer = "CoreDecomposition.collect"

  def install(sc: SparkContext): SparkTrace = {
    val t = new SparkTrace(sc)
    sc.addSparkListener(t)
    t
  }

  /** Per-layer difference of two counter snapshots. */
  def diff(after: Map[String, Work], before: Map[String, Work]): Map[String, Work] =
    after.map { case (k, w) => k -> (w - before.getOrElse(k, Work())) }

  /** True for a layer name that came from a program object or a set-up span. */
  def attributed(layer: String): Boolean =
    layer != Unattributed && !layer.startsWith("other.")

  /** Layer of a call stack (one frame per line, innermost first): the first
    * `repro.` frame that belongs to a layer, skipping graph plumbing. A stack
    * with only benchmark frames (or none) belongs to `span`.
    */
  def layerOf(stack: String, span: String): String = {
    val frames = stack.linesIterator.map(_.trim).filter(_.startsWith("repro.")).toSeq
    frames.iterator.map { frame =>
      val call = frame.takeWhile(_ != '(')
      val cut = call.lastIndexOf('.')
      val cls = call.substring(0, cut)
      val method = call.substring(cut + 1)
      val obj = cls.split('.').last.takeWhile(_ != '$')
      if (cls.startsWith("repro.perfbench.")) Some(span)
      else obj match {
        case "PriorityBfs"                 => Some("PriorityBfs")
        case "Sea" | "Sampling" | "Blb"    => Some("Sea")
        case "AttrDistance"                => Some("AttrDistance")
        case "CoreDecomposition" =>
          Some(if (method.contains("collectLocal")) CollectLayer
               else if (method.contains("componentOf")) "CoreDecomposition.component"
               else "CoreDecomposition.kcore")
        case "TrussDecomposition"          => Some("TrussDecomposition")
        case "MetaPath"                    => Some("MetaPath")
        case "Harness"                     => Some("Harness.mirror")
        case "SynthGraph" | "Datasets"     => Some("SynthGraph")
        case "AttributedGraph" | "LocalGraph" => None
        case other                         => Some("other." + other)
      }
    }.collectFirst { case Some(l) => l }.getOrElse(span)
  }
}
